// Generated by the HIDA reproduction HLS C++ emitter.
#include <ap_int.h>
#include <hls_stream.h>
#include <cstring>

void task0(float arg0[96][96], float arg1[96][96], float arg2[96][96]) {
#pragma HLS inline off
  for (int i0 = 0; i0 < 96; ++i0) {
  #pragma HLS unroll factor=4
    for (int i1 = 0; i1 < 96; ++i1) {
    #pragma HLS unroll factor=4
      for (int i2 = 0; i2 < 96; ++i2) {
      #pragma HLS pipeline II=1
        // compute body (884736 MACs per frame)
      }
    }
  }
}

void task1(float arg0[96][96], float arg1[96][96], float arg2[96][96]) {
#pragma HLS inline off
  for (int i0 = 0; i0 < 96; ++i0) {
  #pragma HLS unroll factor=4
    for (int i1 = 0; i1 < 96; ++i1) {
    #pragma HLS unroll factor=4
      for (int i2 = 0; i2 < 96; ++i2) {
      #pragma HLS pipeline II=1
        // compute body (884736 MACs per frame)
      }
    }
  }
}

void k2mm_top() {
#pragma HLS dataflow
  static float A[96][96];
#pragma HLS array_partition variable=A cyclic factor=4 dim=1
#pragma HLS stream variable=A depth=2
  static float B[96][96];
#pragma HLS array_partition variable=B cyclic factor=4 dim=2
#pragma HLS stream variable=B depth=2
  static float C[96][96];
#pragma HLS array_partition variable=C cyclic factor=4 dim=2
#pragma HLS stream variable=C depth=2
  static float tmp[96][96];
#pragma HLS array_partition variable=tmp cyclic factor=4 dim=1
#pragma HLS array_partition variable=tmp cyclic factor=4 dim=2
#pragma HLS stream variable=tmp depth=2
  static float D[96][96];
#pragma HLS array_partition variable=D cyclic factor=4 dim=1
#pragma HLS array_partition variable=D cyclic factor=4 dim=2
#pragma HLS stream variable=D depth=2
  task0(A, B, tmp);
  task1(tmp, C, D);
}

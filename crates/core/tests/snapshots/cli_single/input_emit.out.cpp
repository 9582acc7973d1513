// Generated by the HIDA reproduction HLS C++ emitter.
#include <ap_int.h>
#include <hls_stream.h>
#include <cstring>

void task0(float arg0[96][96], float arg1[96][96], float arg2[96][96], float arg3[8][8], float arg4[8][8], float arg5[8][8]) {
#pragma HLS inline off
  for (int i0 = 0; i0 < 96; ++i0) {
  #pragma HLS unroll factor=4
    for (int i1 = 0; i1 < 96; ++i1) {
    #pragma HLS unroll factor=8
      for (int i2 = 0; i2 < 96; ++i2) {
      #pragma HLS pipeline II=1
        // compute body (884736 MACs per frame)
      }
    }
  }
}

void task1(float arg0[96][96], float arg1[96][96], float arg2[96][96], float arg3[8][8], float arg4[8][8], float arg5[8][8]) {
#pragma HLS inline off
  for (int i0 = 0; i0 < 96; ++i0) {
  #pragma HLS unroll factor=4
    for (int i1 = 0; i1 < 96; ++i1) {
    #pragma HLS unroll factor=8
      for (int i2 = 0; i2 < 96; ++i2) {
      #pragma HLS pipeline II=1
        // compute body (884736 MACs per frame)
      }
    }
  }
}

void k2mm_top() {
#pragma HLS dataflow
  // A: soft FIFO in external memory (AXI master)
  static float A[96][96];
#pragma HLS interface m_axi port=A bundle=gmem
  static float A_tile0[8][8];
#pragma HLS stream variable=A_tile0 depth=2
  // B: soft FIFO in external memory (AXI master)
  static float B[96][96];
#pragma HLS interface m_axi port=B bundle=gmem
  static float B_tile0[8][8];
#pragma HLS stream variable=B_tile0 depth=2
  // C: soft FIFO in external memory (AXI master)
  static float C[96][96];
#pragma HLS interface m_axi port=C bundle=gmem
  static float C_tile0[8][8];
#pragma HLS stream variable=C_tile0 depth=2
  // tmp: soft FIFO in external memory (AXI master)
  static float tmp[96][96];
#pragma HLS interface m_axi port=tmp bundle=gmem
  static float tmp_tile1[8][8];
#pragma HLS stream variable=tmp_tile1 depth=2
  static float tmp_tile0[8][8];
#pragma HLS stream variable=tmp_tile0 depth=2
  // D: soft FIFO in external memory (AXI master)
  static float D[96][96];
#pragma HLS interface m_axi port=D bundle=gmem
  static float D_tile0[8][8];
#pragma HLS stream variable=D_tile0 depth=2
  task0(A, B, tmp, A_tile0, B_tile0, tmp_tile0);
  task1(tmp, C, D, C_tile0, tmp_tile1, D_tile0);
}

// Generated by the HIDA reproduction HLS C++ emitter.
#include <ap_int.h>
#include <hls_stream.h>
#include <cstring>

void task0_task1_task2(float arg0[16][16], float arg1[16][16], float arg2[16][16]) {
#pragma HLS inline off
  for (int i0 = 0; i0 < 16; ++i0) {
    for (int i1 = 0; i1 < 16; ++i1) {
    #pragma HLS pipeline II=1
      // compute body (0 MACs per frame)
    }
  }
}

void task3(float arg0[16][16], float arg1[16][16], float arg2[16][16]) {
#pragma HLS inline off
  for (int i0 = 0; i0 < 16; ++i0) {
  #pragma HLS unroll factor=4
    for (int i1 = 0; i1 < 16; ++i1) {
    #pragma HLS unroll factor=8
      for (int i2 = 0; i2 < 16; ++i2) {
      #pragma HLS pipeline II=1
        // compute body (8192 MACs per frame)
      }
    }
  }
}

void task4(float arg0[16][16], float arg1[16][16], float arg2[16][16]) {
#pragma HLS inline off
  for (int i0 = 0; i0 < 16; ++i0) {
  #pragma HLS unroll factor=4
    for (int i1 = 0; i1 < 16; ++i1) {
    #pragma HLS unroll factor=4
      for (int i2 = 0; i2 < 16; ++i2) {
      #pragma HLS pipeline II=1
        // compute body (4096 MACs per frame)
      }
    }
  }
}

void attention_top() {
#pragma HLS dataflow
  static float Q[16][16];
#pragma HLS array_partition variable=Q cyclic factor=4 dim=1
#pragma HLS stream variable=Q depth=2
  static float K[16][16];
#pragma HLS array_partition variable=K cyclic factor=8 dim=1
#pragma HLS stream variable=K depth=2
  static float V[16][16];
#pragma HLS array_partition variable=V cyclic factor=4 dim=2
#pragma HLS stream variable=V depth=2
  static float S[16][16];
#pragma HLS array_partition variable=S cyclic factor=4 dim=1
#pragma HLS array_partition variable=S cyclic factor=8 dim=2
#pragma HLS stream variable=S depth=2
  static float O[16][16];
#pragma HLS array_partition variable=O cyclic factor=4 dim=1
#pragma HLS array_partition variable=O cyclic factor=4 dim=2
#pragma HLS stream variable=O depth=2
  task0_task1_task2(Q, K, V);
  task3(Q, K, S);
  task4(S, V, O);
}

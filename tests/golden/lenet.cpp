// Generated by the HIDA reproduction HLS C++ emitter.
#include <ap_int.h>
#include <hls_stream.h>
#include <cstring>

void task0_task1_task2(ap_int<8> arg0[1][28][28], ap_int<8> arg1[6][14][14]) {
#pragma HLS inline off
  for (int i0 = 0; i0 < 6; ++i0) {
  #pragma HLS unroll factor=2
    for (int i1 = 0; i1 < 1; ++i1) {
      for (int i2 = 0; i2 < 28; ++i2) {
      #pragma HLS unroll factor=4
        for (int i3 = 0; i3 < 28; ++i3) {
        #pragma HLS unroll factor=16
          for (int i4 = 0; i4 < 5; ++i4) {
            for (int i5 = 0; i5 < 5; ++i5) {
            #pragma HLS pipeline II=1
              // compute body (117600 MACs per frame)
            }
          }
        }
      }
    }
  }
}

void task3_task4_task5(ap_int<8> arg0[6][14][14], ap_int<8> arg1[16][5][5]) {
#pragma HLS inline off
  for (int i0 = 0; i0 < 16; ++i0) {
  #pragma HLS unroll factor=16
    for (int i1 = 0; i1 < 6; ++i1) {
      for (int i2 = 0; i2 < 10; ++i2) {
      #pragma HLS unroll factor=4
        for (int i3 = 0; i3 < 10; ++i3) {
        #pragma HLS unroll factor=4
          for (int i4 = 0; i4 < 5; ++i4) {
            for (int i5 = 0; i5 < 5; ++i5) {
            #pragma HLS pipeline II=1
              // compute body (240000 MACs per frame)
            }
          }
        }
      }
    }
  }
}

void task6_task7_task8_task9_task10_task11(ap_int<8> arg0[16][5][5], ap_int<8> arg1[10]) {
#pragma HLS inline off
  for (int i0 = 0; i0 < 120; ++i0) {
  #pragma HLS unroll factor=64
    for (int i1 = 0; i1 < 16; ++i1) {
      for (int i2 = 0; i2 < 1; ++i2) {
        for (int i3 = 0; i3 < 1; ++i3) {
          for (int i4 = 0; i4 < 5; ++i4) {
            for (int i5 = 0; i5 < 5; ++i5) {
            #pragma HLS pipeline II=1
              // compute body (58920 MACs per frame)
            }
          }
        }
      }
    }
  }
}

void lenet_top() {
#pragma HLS dataflow
  // input: soft FIFO in external memory (AXI master)
  static ap_int<8> input[1][28][28];
#pragma HLS interface m_axi port=input bundle=gmem
  static ap_int<8> task0_task1_task2_out0[6][14][14];
#pragma HLS array_partition variable=task0_task1_task2_out0 cyclic factor=4 dim=2
#pragma HLS array_partition variable=task0_task1_task2_out0 cyclic factor=4 dim=3
#pragma HLS stream variable=task0_task1_task2_out0 depth=2
  static ap_int<8> task3_task4_task5_out0[16][5][5];
#pragma HLS stream variable=task3_task4_task5_out0 depth=2
  static ap_int<8> task6_task7_task8_task9_task10_task11_out0[10];
#pragma HLS stream variable=task6_task7_task8_task9_task10_task11_out0 depth=2
  task0_task1_task2(input, task0_task1_task2_out0);
  task3_task4_task5(task0_task1_task2_out0, task3_task4_task5_out0);
  task6_task7_task8_task9_task10_task11(task3_task4_task5_out0, task6_task7_task8_task9_task10_task11_out0);
}

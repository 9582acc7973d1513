// Generated by the HIDA reproduction HLS C++ emitter.
#include <ap_int.h>
#include <hls_stream.h>
#include <cstring>

void task0_task1_task2_task3_task4_task5(ap_int<8> arg0[3][224][224], ap_int<8> arg1[64][112][112], ap_int<8> arg2[3][16][16], ap_int<8> arg3[16][16][16]) {
#pragma HLS inline off
  for (int i0 = 0; i0 < 64; ++i0) {
  #pragma HLS unroll factor=4
    for (int i1 = 0; i1 < 32; ++i1) {
      for (int i2 = 0; i2 < 112; ++i2) {
      #pragma HLS unroll factor=8
        for (int i3 = 0; i3 < 112; ++i3) {
        #pragma HLS unroll factor=8
          for (int i4 = 0; i4 < 1; ++i4) {
            for (int i5 = 0; i5 < 1; ++i5) {
            #pragma HLS pipeline II=1
              // compute body (40140800 MACs per frame)
            }
          }
        }
      }
    }
  }
}

void task6_task7_task8_task9_task10_task11(ap_int<8> arg0[64][112][112], ap_int<8> arg1[128][56][56], ap_int<8> arg2[16][16][16], ap_int<8> arg3[16][16][16]) {
#pragma HLS inline off
  for (int i0 = 0; i0 < 128; ++i0) {
  #pragma HLS unroll factor=4
    for (int i1 = 0; i1 < 64; ++i1) {
      for (int i2 = 0; i2 < 56; ++i2) {
      #pragma HLS unroll factor=8
        for (int i3 = 0; i3 < 56; ++i3) {
        #pragma HLS unroll factor=8
          for (int i4 = 0; i4 < 1; ++i4) {
            for (int i5 = 0; i5 < 1; ++i5) {
            #pragma HLS pipeline II=1
              // compute body (31109120 MACs per frame)
            }
          }
        }
      }
    }
  }
}

void task12_task13(ap_int<8> arg0[128][56][56], ap_int<8> arg1[128][56][56], ap_int<8> arg2[16][16][16], ap_int<8> arg3[16][16][16]) {
#pragma HLS inline off
  for (int i0 = 0; i0 < 128; ++i0) {
  #pragma HLS unroll factor=4
    for (int i1 = 0; i1 < 128; ++i1) {
      for (int i2 = 0; i2 < 56; ++i2) {
      #pragma HLS unroll factor=8
        for (int i3 = 0; i3 < 56; ++i3) {
        #pragma HLS unroll factor=8
          for (int i4 = 0; i4 < 1; ++i4) {
            for (int i5 = 0; i5 < 1; ++i5) {
            #pragma HLS pipeline II=1
              // compute body (51380224 MACs per frame)
            }
          }
        }
      }
    }
  }
}

void task14_task15_task16_task17_task18_task19(ap_int<8> arg0[128][56][56], ap_int<8> arg1[256][28][28], ap_int<8> arg2[16][16][16], ap_int<8> arg3[16][16][16]) {
#pragma HLS inline off
  for (int i0 = 0; i0 < 256; ++i0) {
  #pragma HLS unroll factor=16
    for (int i1 = 0; i1 < 128; ++i1) {
      for (int i2 = 0; i2 < 28; ++i2) {
      #pragma HLS unroll factor=4
        for (int i3 = 0; i3 < 28; ++i3) {
        #pragma HLS unroll factor=4
          for (int i4 = 0; i4 < 1; ++i4) {
            for (int i5 = 0; i5 < 1; ++i5) {
            #pragma HLS pipeline II=1
              // compute body (28399616 MACs per frame)
            }
          }
        }
      }
    }
  }
}

void task20_task21(ap_int<8> arg0[256][28][28], ap_int<8> arg1[256][28][28], ap_int<8> arg2[16][16][16], ap_int<8> arg3[16][16][16]) {
#pragma HLS inline off
  for (int i0 = 0; i0 < 256; ++i0) {
  #pragma HLS unroll factor=16
    for (int i1 = 0; i1 < 256; ++i1) {
      for (int i2 = 0; i2 < 28; ++i2) {
      #pragma HLS unroll factor=4
        for (int i3 = 0; i3 < 28; ++i3) {
        #pragma HLS unroll factor=4
          for (int i4 = 0; i4 < 1; ++i4) {
            for (int i5 = 0; i5 < 1; ++i5) {
            #pragma HLS pipeline II=1
              // compute body (51380224 MACs per frame)
            }
          }
        }
      }
    }
  }
}

void task22_task23_task24_task25_task26_task27(ap_int<8> arg0[256][28][28], ap_int<8> arg1[512][14][14], ap_int<8> arg2[16][16][16], ap_int<8> arg3[16][14][14]) {
#pragma HLS inline off
  for (int i0 = 0; i0 < 512; ++i0) {
  #pragma HLS unroll factor=64
    for (int i1 = 0; i1 < 256; ++i1) {
      for (int i2 = 0; i2 < 14; ++i2) {
      #pragma HLS unroll factor=2
        for (int i3 = 0; i3 < 14; ++i3) {
        #pragma HLS unroll factor=2
          for (int i4 = 0; i4 < 1; ++i4) {
            for (int i5 = 0; i5 < 1; ++i5) {
            #pragma HLS pipeline II=1
              // compute body (27044864 MACs per frame)
            }
          }
        }
      }
    }
  }
}

void task28_task29(ap_int<8> arg0[512][14][14], ap_int<8> arg1[512][14][14], ap_int<8> arg2[16][14][14], ap_int<8> arg3[16][14][14]) {
#pragma HLS inline off
  for (int i0 = 0; i0 < 512; ++i0) {
  #pragma HLS unroll factor=64
    for (int i1 = 0; i1 < 512; ++i1) {
      for (int i2 = 0; i2 < 14; ++i2) {
      #pragma HLS unroll factor=2
        for (int i3 = 0; i3 < 14; ++i3) {
        #pragma HLS unroll factor=2
          for (int i4 = 0; i4 < 1; ++i4) {
            for (int i5 = 0; i5 < 1; ++i5) {
            #pragma HLS pipeline II=1
              // compute body (51380224 MACs per frame)
            }
          }
        }
      }
    }
  }
}

void task30_task31(ap_int<8> arg0[512][14][14], ap_int<8> arg1[512][14][14], ap_int<8> arg2[16][14][14], ap_int<8> arg3[16][14][14]) {
#pragma HLS inline off
  for (int i0 = 0; i0 < 512; ++i0) {
  #pragma HLS unroll factor=64
    for (int i1 = 0; i1 < 14; ++i1) {
    #pragma HLS unroll factor=2
      for (int i2 = 0; i2 < 14; ++i2) {
      #pragma HLS unroll factor=2
        for (int i3 = 0; i3 < 3; ++i3) {
          for (int i4 = 0; i4 < 3; ++i4) {
          #pragma HLS pipeline II=1
            // compute body (903168 MACs per frame)
          }
        }
      }
    }
  }
}

void task32_task33(ap_int<8> arg0[512][14][14], ap_int<8> arg1[512][14][14], ap_int<8> arg2[16][14][14], ap_int<8> arg3[16][14][14]) {
#pragma HLS inline off
  for (int i0 = 0; i0 < 512; ++i0) {
  #pragma HLS unroll factor=64
    for (int i1 = 0; i1 < 512; ++i1) {
      for (int i2 = 0; i2 < 14; ++i2) {
      #pragma HLS unroll factor=2
        for (int i3 = 0; i3 < 14; ++i3) {
        #pragma HLS unroll factor=2
          for (int i4 = 0; i4 < 1; ++i4) {
            for (int i5 = 0; i5 < 1; ++i5) {
            #pragma HLS pipeline II=1
              // compute body (51380224 MACs per frame)
            }
          }
        }
      }
    }
  }
}

void task34_task35(ap_int<8> arg0[512][14][14], ap_int<8> arg1[512][14][14], ap_int<8> arg2[16][14][14], ap_int<8> arg3[16][14][14]) {
#pragma HLS inline off
  for (int i0 = 0; i0 < 512; ++i0) {
  #pragma HLS unroll factor=64
    for (int i1 = 0; i1 < 14; ++i1) {
    #pragma HLS unroll factor=2
      for (int i2 = 0; i2 < 14; ++i2) {
      #pragma HLS unroll factor=2
        for (int i3 = 0; i3 < 3; ++i3) {
          for (int i4 = 0; i4 < 3; ++i4) {
          #pragma HLS pipeline II=1
            // compute body (903168 MACs per frame)
          }
        }
      }
    }
  }
}

void task36_task37(ap_int<8> arg0[512][14][14], ap_int<8> arg1[512][14][14], ap_int<8> arg2[16][14][14], ap_int<8> arg3[16][14][14]) {
#pragma HLS inline off
  for (int i0 = 0; i0 < 512; ++i0) {
  #pragma HLS unroll factor=64
    for (int i1 = 0; i1 < 512; ++i1) {
      for (int i2 = 0; i2 < 14; ++i2) {
      #pragma HLS unroll factor=2
        for (int i3 = 0; i3 < 14; ++i3) {
        #pragma HLS unroll factor=2
          for (int i4 = 0; i4 < 1; ++i4) {
            for (int i5 = 0; i5 < 1; ++i5) {
            #pragma HLS pipeline II=1
              // compute body (51380224 MACs per frame)
            }
          }
        }
      }
    }
  }
}

void task38_task39(ap_int<8> arg0[512][14][14], ap_int<8> arg1[512][14][14], ap_int<8> arg2[16][14][14], ap_int<8> arg3[16][14][14]) {
#pragma HLS inline off
  for (int i0 = 0; i0 < 512; ++i0) {
  #pragma HLS unroll factor=64
    for (int i1 = 0; i1 < 14; ++i1) {
    #pragma HLS unroll factor=2
      for (int i2 = 0; i2 < 14; ++i2) {
      #pragma HLS unroll factor=2
        for (int i3 = 0; i3 < 3; ++i3) {
          for (int i4 = 0; i4 < 3; ++i4) {
          #pragma HLS pipeline II=1
            // compute body (903168 MACs per frame)
          }
        }
      }
    }
  }
}

void task40_task41(ap_int<8> arg0[512][14][14], ap_int<8> arg1[512][14][14], ap_int<8> arg2[16][14][14], ap_int<8> arg3[16][14][14]) {
#pragma HLS inline off
  for (int i0 = 0; i0 < 512; ++i0) {
  #pragma HLS unroll factor=64
    for (int i1 = 0; i1 < 512; ++i1) {
      for (int i2 = 0; i2 < 14; ++i2) {
      #pragma HLS unroll factor=2
        for (int i3 = 0; i3 < 14; ++i3) {
        #pragma HLS unroll factor=2
          for (int i4 = 0; i4 < 1; ++i4) {
            for (int i5 = 0; i5 < 1; ++i5) {
            #pragma HLS pipeline II=1
              // compute body (51380224 MACs per frame)
            }
          }
        }
      }
    }
  }
}

void task42_task43(ap_int<8> arg0[512][14][14], ap_int<8> arg1[512][14][14], ap_int<8> arg2[16][14][14], ap_int<8> arg3[16][14][14]) {
#pragma HLS inline off
  for (int i0 = 0; i0 < 512; ++i0) {
  #pragma HLS unroll factor=64
    for (int i1 = 0; i1 < 14; ++i1) {
    #pragma HLS unroll factor=2
      for (int i2 = 0; i2 < 14; ++i2) {
      #pragma HLS unroll factor=2
        for (int i3 = 0; i3 < 3; ++i3) {
          for (int i4 = 0; i4 < 3; ++i4) {
          #pragma HLS pipeline II=1
            // compute body (903168 MACs per frame)
          }
        }
      }
    }
  }
}

void task44_task45(ap_int<8> arg0[512][14][14], ap_int<8> arg1[512][14][14], ap_int<8> arg2[16][14][14], ap_int<8> arg3[16][14][14]) {
#pragma HLS inline off
  for (int i0 = 0; i0 < 512; ++i0) {
  #pragma HLS unroll factor=64
    for (int i1 = 0; i1 < 512; ++i1) {
      for (int i2 = 0; i2 < 14; ++i2) {
      #pragma HLS unroll factor=2
        for (int i3 = 0; i3 < 14; ++i3) {
        #pragma HLS unroll factor=2
          for (int i4 = 0; i4 < 1; ++i4) {
            for (int i5 = 0; i5 < 1; ++i5) {
            #pragma HLS pipeline II=1
              // compute body (51380224 MACs per frame)
            }
          }
        }
      }
    }
  }
}

void task46_task47_task48_task49_task50_task51(ap_int<8> arg0[512][14][14], ap_int<8> arg1[1024][7][7], ap_int<8> arg2[16][14][14], ap_int<8> arg3[16][7][7]) {
#pragma HLS inline off
  for (int i0 = 0; i0 < 1024; ++i0) {
  #pragma HLS unroll factor=256
    for (int i1 = 0; i1 < 512; ++i1) {
      for (int i2 = 0; i2 < 7; ++i2) {
        for (int i3 = 0; i3 < 7; ++i3) {
          for (int i4 = 0; i4 < 1; ++i4) {
            for (int i5 = 0; i5 < 1; ++i5) {
            #pragma HLS pipeline II=1
              // compute body (26367488 MACs per frame)
            }
          }
        }
      }
    }
  }
}

void task52_task53_task54_task55(ap_int<8> arg0[1024][7][7], ap_int<8> arg1[1024], ap_int<8> arg2[16][7][7]) {
#pragma HLS inline off
  for (int i0 = 0; i0 < 1024; ++i0) {
  #pragma HLS unroll factor=256
    for (int i1 = 0; i1 < 1024; ++i1) {
      for (int i2 = 0; i2 < 7; ++i2) {
        for (int i3 = 0; i3 < 7; ++i3) {
          for (int i4 = 0; i4 < 1; ++i4) {
            for (int i5 = 0; i5 < 1; ++i5) {
            #pragma HLS pipeline II=1
              // compute body (51380224 MACs per frame)
            }
          }
        }
      }
    }
  }
}

void task56(ap_int<8> arg0[1024], ap_int<8> arg1[1000]) {
#pragma HLS inline off
  for (int i0 = 0; i0 < 1000; ++i0) {
  #pragma HLS unroll factor=256
    for (int i1 = 0; i1 < 1024; ++i1) {
    #pragma HLS pipeline II=1
      // compute body (1024000 MACs per frame)
    }
  }
}

void mobilenet_top() {
#pragma HLS dataflow
  // input: soft FIFO in external memory (AXI master)
  static ap_int<8> input[3][224][224];
#pragma HLS interface m_axi port=input bundle=gmem
  static ap_int<8> input_tile0[3][16][16];
#pragma HLS stream variable=input_tile0 depth=2
  // task0_task1_task2_task3_task4_task5_out0: soft FIFO in external memory (AXI master)
  static ap_int<8> task0_task1_task2_task3_task4_task5_out0[64][112][112];
#pragma HLS interface m_axi port=task0_task1_task2_task3_task4_task5_out0 bundle=gmem
  static ap_int<8> task0_task1_task2_task3_task4_task5_out0_tile1[16][16][16];
#pragma HLS stream variable=task0_task1_task2_task3_task4_task5_out0_tile1 depth=2
  static ap_int<8> task0_task1_task2_task3_task4_task5_out0_tile0[16][16][16];
#pragma HLS stream variable=task0_task1_task2_task3_task4_task5_out0_tile0 depth=2
  // task6_task7_task8_task9_task10_task11_out0: soft FIFO in external memory (AXI master)
  static ap_int<8> task6_task7_task8_task9_task10_task11_out0[128][56][56];
#pragma HLS interface m_axi port=task6_task7_task8_task9_task10_task11_out0 bundle=gmem
  static ap_int<8> task6_task7_task8_task9_task10_task11_out0_tile1[16][16][16];
#pragma HLS stream variable=task6_task7_task8_task9_task10_task11_out0_tile1 depth=2
  static ap_int<8> task6_task7_task8_task9_task10_task11_out0_tile0[16][16][16];
#pragma HLS stream variable=task6_task7_task8_task9_task10_task11_out0_tile0 depth=2
  // task12_task13_out0: soft FIFO in external memory (AXI master)
  static ap_int<8> task12_task13_out0[128][56][56];
#pragma HLS interface m_axi port=task12_task13_out0 bundle=gmem
  static ap_int<8> task12_task13_out0_tile1[16][16][16];
#pragma HLS stream variable=task12_task13_out0_tile1 depth=2
  static ap_int<8> task12_task13_out0_tile0[16][16][16];
#pragma HLS stream variable=task12_task13_out0_tile0 depth=2
  // task14_task15_task16_task17_task18_task19_out0: soft FIFO in external memory (AXI master)
  static ap_int<8> task14_task15_task16_task17_task18_task19_out0[256][28][28];
#pragma HLS interface m_axi port=task14_task15_task16_task17_task18_task19_out0 bundle=gmem
  static ap_int<8> task14_task15_task16_task17_task18_task19_out0_tile1[16][16][16];
#pragma HLS stream variable=task14_task15_task16_task17_task18_task19_out0_tile1 depth=2
  static ap_int<8> task14_task15_task16_task17_task18_task19_out0_tile0[16][16][16];
#pragma HLS stream variable=task14_task15_task16_task17_task18_task19_out0_tile0 depth=2
  // task20_task21_out0: soft FIFO in external memory (AXI master)
  static ap_int<8> task20_task21_out0[256][28][28];
#pragma HLS interface m_axi port=task20_task21_out0 bundle=gmem
  static ap_int<8> task20_task21_out0_tile1[16][16][16];
#pragma HLS stream variable=task20_task21_out0_tile1 depth=2
  static ap_int<8> task20_task21_out0_tile0[16][16][16];
#pragma HLS stream variable=task20_task21_out0_tile0 depth=2
  // task22_task23_task24_task25_task26_task27_out0: soft FIFO in external memory (AXI master)
  static ap_int<8> task22_task23_task24_task25_task26_task27_out0[512][14][14];
#pragma HLS interface m_axi port=task22_task23_task24_task25_task26_task27_out0 bundle=gmem
  static ap_int<8> task22_task23_task24_task25_task26_task27_out0_tile1[16][14][14];
#pragma HLS stream variable=task22_task23_task24_task25_task26_task27_out0_tile1 depth=2
  static ap_int<8> task22_task23_task24_task25_task26_task27_out0_tile0[16][14][14];
#pragma HLS stream variable=task22_task23_task24_task25_task26_task27_out0_tile0 depth=2
  // task28_task29_out0: soft FIFO in external memory (AXI master)
  static ap_int<8> task28_task29_out0[512][14][14];
#pragma HLS interface m_axi port=task28_task29_out0 bundle=gmem
  static ap_int<8> task28_task29_out0_tile1[16][14][14];
#pragma HLS stream variable=task28_task29_out0_tile1 depth=2
  static ap_int<8> task28_task29_out0_tile0[16][14][14];
#pragma HLS stream variable=task28_task29_out0_tile0 depth=2
  // task30_task31_out0: soft FIFO in external memory (AXI master)
  static ap_int<8> task30_task31_out0[512][14][14];
#pragma HLS interface m_axi port=task30_task31_out0 bundle=gmem
  static ap_int<8> task30_task31_out0_tile1[16][14][14];
#pragma HLS stream variable=task30_task31_out0_tile1 depth=2
  static ap_int<8> task30_task31_out0_tile0[16][14][14];
#pragma HLS stream variable=task30_task31_out0_tile0 depth=2
  // task32_task33_out0: soft FIFO in external memory (AXI master)
  static ap_int<8> task32_task33_out0[512][14][14];
#pragma HLS interface m_axi port=task32_task33_out0 bundle=gmem
  static ap_int<8> task32_task33_out0_tile1[16][14][14];
#pragma HLS stream variable=task32_task33_out0_tile1 depth=2
  static ap_int<8> task32_task33_out0_tile0[16][14][14];
#pragma HLS stream variable=task32_task33_out0_tile0 depth=2
  // task34_task35_out0: soft FIFO in external memory (AXI master)
  static ap_int<8> task34_task35_out0[512][14][14];
#pragma HLS interface m_axi port=task34_task35_out0 bundle=gmem
  static ap_int<8> task34_task35_out0_tile1[16][14][14];
#pragma HLS stream variable=task34_task35_out0_tile1 depth=2
  static ap_int<8> task34_task35_out0_tile0[16][14][14];
#pragma HLS stream variable=task34_task35_out0_tile0 depth=2
  // task36_task37_out0: soft FIFO in external memory (AXI master)
  static ap_int<8> task36_task37_out0[512][14][14];
#pragma HLS interface m_axi port=task36_task37_out0 bundle=gmem
  static ap_int<8> task36_task37_out0_tile1[16][14][14];
#pragma HLS stream variable=task36_task37_out0_tile1 depth=2
  static ap_int<8> task36_task37_out0_tile0[16][14][14];
#pragma HLS stream variable=task36_task37_out0_tile0 depth=2
  // task38_task39_out0: soft FIFO in external memory (AXI master)
  static ap_int<8> task38_task39_out0[512][14][14];
#pragma HLS interface m_axi port=task38_task39_out0 bundle=gmem
  static ap_int<8> task38_task39_out0_tile1[16][14][14];
#pragma HLS stream variable=task38_task39_out0_tile1 depth=2
  static ap_int<8> task38_task39_out0_tile0[16][14][14];
#pragma HLS stream variable=task38_task39_out0_tile0 depth=2
  // task40_task41_out0: soft FIFO in external memory (AXI master)
  static ap_int<8> task40_task41_out0[512][14][14];
#pragma HLS interface m_axi port=task40_task41_out0 bundle=gmem
  static ap_int<8> task40_task41_out0_tile1[16][14][14];
#pragma HLS stream variable=task40_task41_out0_tile1 depth=2
  static ap_int<8> task40_task41_out0_tile0[16][14][14];
#pragma HLS stream variable=task40_task41_out0_tile0 depth=2
  // task42_task43_out0: soft FIFO in external memory (AXI master)
  static ap_int<8> task42_task43_out0[512][14][14];
#pragma HLS interface m_axi port=task42_task43_out0 bundle=gmem
  static ap_int<8> task42_task43_out0_tile1[16][14][14];
#pragma HLS stream variable=task42_task43_out0_tile1 depth=2
  static ap_int<8> task42_task43_out0_tile0[16][14][14];
#pragma HLS stream variable=task42_task43_out0_tile0 depth=2
  // task44_task45_out0: soft FIFO in external memory (AXI master)
  static ap_int<8> task44_task45_out0[512][14][14];
#pragma HLS interface m_axi port=task44_task45_out0 bundle=gmem
  static ap_int<8> task44_task45_out0_tile1[16][14][14];
#pragma HLS stream variable=task44_task45_out0_tile1 depth=2
  static ap_int<8> task44_task45_out0_tile0[16][14][14];
#pragma HLS stream variable=task44_task45_out0_tile0 depth=2
  // task46_task47_task48_task49_task50_task51_out0: soft FIFO in external memory (AXI master)
  static ap_int<8> task46_task47_task48_task49_task50_task51_out0[1024][7][7];
#pragma HLS interface m_axi port=task46_task47_task48_task49_task50_task51_out0 bundle=gmem
  static ap_int<8> task46_task47_task48_task49_task50_task51_out0_tile1[16][7][7];
#pragma HLS stream variable=task46_task47_task48_task49_task50_task51_out0_tile1 depth=2
  static ap_int<8> task46_task47_task48_task49_task50_task51_out0_tile0[16][7][7];
#pragma HLS stream variable=task46_task47_task48_task49_task50_task51_out0_tile0 depth=2
  static ap_int<8> task52_task53_task54_task55_out0[1024];
#pragma HLS stream variable=task52_task53_task54_task55_out0 depth=2
  static ap_int<8> task56_out0[1000];
#pragma HLS stream variable=task56_out0 depth=2
  task0_task1_task2_task3_task4_task5(input, task0_task1_task2_task3_task4_task5_out0, input_tile0, task0_task1_task2_task3_task4_task5_out0_tile0);
  task6_task7_task8_task9_task10_task11(task0_task1_task2_task3_task4_task5_out0, task6_task7_task8_task9_task10_task11_out0, task0_task1_task2_task3_task4_task5_out0_tile1, task6_task7_task8_task9_task10_task11_out0_tile0);
  task12_task13(task6_task7_task8_task9_task10_task11_out0, task12_task13_out0, task6_task7_task8_task9_task10_task11_out0_tile1, task12_task13_out0_tile0);
  task14_task15_task16_task17_task18_task19(task12_task13_out0, task14_task15_task16_task17_task18_task19_out0, task12_task13_out0_tile1, task14_task15_task16_task17_task18_task19_out0_tile0);
  task20_task21(task14_task15_task16_task17_task18_task19_out0, task20_task21_out0, task14_task15_task16_task17_task18_task19_out0_tile1, task20_task21_out0_tile0);
  task22_task23_task24_task25_task26_task27(task20_task21_out0, task22_task23_task24_task25_task26_task27_out0, task20_task21_out0_tile1, task22_task23_task24_task25_task26_task27_out0_tile0);
  task28_task29(task22_task23_task24_task25_task26_task27_out0, task28_task29_out0, task22_task23_task24_task25_task26_task27_out0_tile1, task28_task29_out0_tile0);
  task30_task31(task28_task29_out0, task30_task31_out0, task28_task29_out0_tile1, task30_task31_out0_tile0);
  task32_task33(task30_task31_out0, task32_task33_out0, task30_task31_out0_tile1, task32_task33_out0_tile0);
  task34_task35(task32_task33_out0, task34_task35_out0, task32_task33_out0_tile1, task34_task35_out0_tile0);
  task36_task37(task34_task35_out0, task36_task37_out0, task34_task35_out0_tile1, task36_task37_out0_tile0);
  task38_task39(task36_task37_out0, task38_task39_out0, task36_task37_out0_tile1, task38_task39_out0_tile0);
  task40_task41(task38_task39_out0, task40_task41_out0, task38_task39_out0_tile1, task40_task41_out0_tile0);
  task42_task43(task40_task41_out0, task42_task43_out0, task40_task41_out0_tile1, task42_task43_out0_tile0);
  task44_task45(task42_task43_out0, task44_task45_out0, task42_task43_out0_tile1, task44_task45_out0_tile0);
  task46_task47_task48_task49_task50_task51(task44_task45_out0, task46_task47_task48_task49_task50_task51_out0, task44_task45_out0_tile1, task46_task47_task48_task49_task50_task51_out0_tile0);
  task52_task53_task54_task55(task46_task47_task48_task49_task50_task51_out0, task52_task53_task54_task55_out0, task46_task47_task48_task49_task50_task51_out0_tile1);
  task56(task52_task53_task54_task55_out0, task56_out0);
}

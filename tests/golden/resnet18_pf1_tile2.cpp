// Generated by the HIDA reproduction HLS C++ emitter.
#include <ap_int.h>
#include <hls_stream.h>
#include <cstring>

void task0_task1_task2(ap_int<8> arg0[3][224][224], ap_int<8> arg1[64][56][56], ap_int<8> arg2[2][2][2], ap_int<8> arg3[2][2][2], ap_int<8> arg4) {
#pragma HLS inline off
  for (int i0 = 0; i0 < 64; ++i0) {
    for (int i1 = 0; i1 < 3; ++i1) {
      for (int i2 = 0; i2 < 112; ++i2) {
        for (int i3 = 0; i3 < 112; ++i3) {
          for (int i4 = 0; i4 < 7; ++i4) {
            for (int i5 = 0; i5 < 7; ++i5) {
            #pragma HLS pipeline II=1
              // compute body (118013952 MACs per frame)
            }
          }
        }
      }
    }
  }
}

void task3_task4(ap_int<8> arg0[64][56][56], ap_int<8> arg1[64][56][56], ap_int<8> arg2[2][2][2], ap_int<8> arg3[2][2][2]) {
#pragma HLS inline off
  for (int i0 = 0; i0 < 64; ++i0) {
    for (int i1 = 0; i1 < 64; ++i1) {
      for (int i2 = 0; i2 < 56; ++i2) {
        for (int i3 = 0; i3 < 56; ++i3) {
          for (int i4 = 0; i4 < 3; ++i4) {
            for (int i5 = 0; i5 < 3; ++i5) {
            #pragma HLS pipeline II=1
              // compute body (115605504 MACs per frame)
            }
          }
        }
      }
    }
  }
}

void task5_task6_task7(ap_int<8> arg0[64][56][56], ap_int<8> arg1[64][56][56], ap_int<8> arg2[64][56][56], ap_int<8> arg3[2][2][2], ap_int<8> arg4[2][2][2], ap_int<8> arg5[2][2][2], ap_int<8> arg6, ap_int<8> arg7) {
#pragma HLS inline off
  for (int i0 = 0; i0 < 64; ++i0) {
    for (int i1 = 0; i1 < 64; ++i1) {
      for (int i2 = 0; i2 < 56; ++i2) {
        for (int i3 = 0; i3 < 56; ++i3) {
          for (int i4 = 0; i4 < 3; ++i4) {
            for (int i5 = 0; i5 < 3; ++i5) {
            #pragma HLS pipeline II=1
              // compute body (115605504 MACs per frame)
            }
          }
        }
      }
    }
  }
}

void task8_task9(ap_int<8> arg0[64][56][56], ap_int<8> arg1[64][56][56], ap_int<8> arg2[2][2][2], ap_int<8> arg3[2][2][2]) {
#pragma HLS inline off
  for (int i0 = 0; i0 < 64; ++i0) {
    for (int i1 = 0; i1 < 64; ++i1) {
      for (int i2 = 0; i2 < 56; ++i2) {
        for (int i3 = 0; i3 < 56; ++i3) {
          for (int i4 = 0; i4 < 3; ++i4) {
            for (int i5 = 0; i5 < 3; ++i5) {
            #pragma HLS pipeline II=1
              // compute body (115605504 MACs per frame)
            }
          }
        }
      }
    }
  }
}

void task10_task11_task12(ap_int<8> arg0[64][56][56], ap_int<8> arg1[64][56][56], ap_int<8> arg2[64][56][56], ap_int<8> arg3[2][2][2], ap_int<8> arg4[2][2][2], ap_int<8> arg5[2][2][2], ap_int<8> arg6, ap_int<8> arg7) {
#pragma HLS inline off
  for (int i0 = 0; i0 < 64; ++i0) {
    for (int i1 = 0; i1 < 64; ++i1) {
      for (int i2 = 0; i2 < 56; ++i2) {
        for (int i3 = 0; i3 < 56; ++i3) {
          for (int i4 = 0; i4 < 3; ++i4) {
            for (int i5 = 0; i5 < 3; ++i5) {
            #pragma HLS pipeline II=1
              // compute body (115605504 MACs per frame)
            }
          }
        }
      }
    }
  }
}

void task13_task14(ap_int<8> arg0[64][56][56], ap_int<8> arg1[128][28][28], ap_int<8> arg2[2][2][2], ap_int<8> arg3[2][2][2]) {
#pragma HLS inline off
  for (int i0 = 0; i0 < 128; ++i0) {
    for (int i1 = 0; i1 < 64; ++i1) {
      for (int i2 = 0; i2 < 28; ++i2) {
        for (int i3 = 0; i3 < 28; ++i3) {
          for (int i4 = 0; i4 < 3; ++i4) {
            for (int i5 = 0; i5 < 3; ++i5) {
            #pragma HLS pipeline II=1
              // compute body (57802752 MACs per frame)
            }
          }
        }
      }
    }
  }
}

void task15(ap_int<8> arg0[128][28][28], ap_int<8> arg1[128][28][28], ap_int<8> arg2[2][2][2], ap_int<8> arg3[2][2][2]) {
#pragma HLS inline off
  for (int i0 = 0; i0 < 128; ++i0) {
    for (int i1 = 0; i1 < 128; ++i1) {
      for (int i2 = 0; i2 < 28; ++i2) {
        for (int i3 = 0; i3 < 28; ++i3) {
          for (int i4 = 0; i4 < 3; ++i4) {
            for (int i5 = 0; i5 < 3; ++i5) {
            #pragma HLS pipeline II=1
              // compute body (115605504 MACs per frame)
            }
          }
        }
      }
    }
  }
}

void task16_task17_task18(ap_int<8> arg0[64][56][56], ap_int<8> arg1[128][28][28], ap_int<8> arg2[128][28][28], ap_int<8> arg3[2][2][2], ap_int<8> arg4[2][2][2], ap_int<8> arg5[2][2][2], ap_int<8> arg6, ap_int<8> arg7) {
#pragma HLS inline off
  for (int i0 = 0; i0 < 128; ++i0) {
    for (int i1 = 0; i1 < 64; ++i1) {
      for (int i2 = 0; i2 < 28; ++i2) {
        for (int i3 = 0; i3 < 28; ++i3) {
          for (int i4 = 0; i4 < 1; ++i4) {
            for (int i5 = 0; i5 < 1; ++i5) {
            #pragma HLS pipeline II=1
              // compute body (6422528 MACs per frame)
            }
          }
        }
      }
    }
  }
}

void task19_task20(ap_int<8> arg0[128][28][28], ap_int<8> arg1[128][28][28], ap_int<8> arg2[2][2][2], ap_int<8> arg3[2][2][2]) {
#pragma HLS inline off
  for (int i0 = 0; i0 < 128; ++i0) {
    for (int i1 = 0; i1 < 128; ++i1) {
      for (int i2 = 0; i2 < 28; ++i2) {
        for (int i3 = 0; i3 < 28; ++i3) {
          for (int i4 = 0; i4 < 3; ++i4) {
            for (int i5 = 0; i5 < 3; ++i5) {
            #pragma HLS pipeline II=1
              // compute body (115605504 MACs per frame)
            }
          }
        }
      }
    }
  }
}

void task21_task22_task23(ap_int<8> arg0[128][28][28], ap_int<8> arg1[128][28][28], ap_int<8> arg2[128][28][28], ap_int<8> arg3[2][2][2], ap_int<8> arg4[2][2][2], ap_int<8> arg5[2][2][2], ap_int<8> arg6, ap_int<8> arg7) {
#pragma HLS inline off
  for (int i0 = 0; i0 < 128; ++i0) {
    for (int i1 = 0; i1 < 128; ++i1) {
      for (int i2 = 0; i2 < 28; ++i2) {
        for (int i3 = 0; i3 < 28; ++i3) {
          for (int i4 = 0; i4 < 3; ++i4) {
            for (int i5 = 0; i5 < 3; ++i5) {
            #pragma HLS pipeline II=1
              // compute body (115605504 MACs per frame)
            }
          }
        }
      }
    }
  }
}

void task24_task25(ap_int<8> arg0[128][28][28], ap_int<8> arg1[256][14][14], ap_int<8> arg2[2][2][2], ap_int<8> arg3[2][2][2]) {
#pragma HLS inline off
  for (int i0 = 0; i0 < 256; ++i0) {
    for (int i1 = 0; i1 < 128; ++i1) {
      for (int i2 = 0; i2 < 14; ++i2) {
        for (int i3 = 0; i3 < 14; ++i3) {
          for (int i4 = 0; i4 < 3; ++i4) {
            for (int i5 = 0; i5 < 3; ++i5) {
            #pragma HLS pipeline II=1
              // compute body (57802752 MACs per frame)
            }
          }
        }
      }
    }
  }
}

void task26(ap_int<8> arg0[256][14][14], ap_int<8> arg1[256][14][14], ap_int<8> arg2[2][2][2], ap_int<8> arg3[2][2][2]) {
#pragma HLS inline off
  for (int i0 = 0; i0 < 256; ++i0) {
    for (int i1 = 0; i1 < 256; ++i1) {
      for (int i2 = 0; i2 < 14; ++i2) {
        for (int i3 = 0; i3 < 14; ++i3) {
          for (int i4 = 0; i4 < 3; ++i4) {
            for (int i5 = 0; i5 < 3; ++i5) {
            #pragma HLS pipeline II=1
              // compute body (115605504 MACs per frame)
            }
          }
        }
      }
    }
  }
}

void task27_task28_task29(ap_int<8> arg0[128][28][28], ap_int<8> arg1[256][14][14], ap_int<8> arg2[256][14][14], ap_int<8> arg3[2][2][2], ap_int<8> arg4[2][2][2], ap_int<8> arg5[2][2][2], ap_int<8> arg6, ap_int<8> arg7) {
#pragma HLS inline off
  for (int i0 = 0; i0 < 256; ++i0) {
    for (int i1 = 0; i1 < 128; ++i1) {
      for (int i2 = 0; i2 < 14; ++i2) {
        for (int i3 = 0; i3 < 14; ++i3) {
          for (int i4 = 0; i4 < 1; ++i4) {
            for (int i5 = 0; i5 < 1; ++i5) {
            #pragma HLS pipeline II=1
              // compute body (6422528 MACs per frame)
            }
          }
        }
      }
    }
  }
}

void task30_task31(ap_int<8> arg0[256][14][14], ap_int<8> arg1[256][14][14], ap_int<8> arg2[2][2][2], ap_int<8> arg3[2][2][2]) {
#pragma HLS inline off
  for (int i0 = 0; i0 < 256; ++i0) {
    for (int i1 = 0; i1 < 256; ++i1) {
      for (int i2 = 0; i2 < 14; ++i2) {
        for (int i3 = 0; i3 < 14; ++i3) {
          for (int i4 = 0; i4 < 3; ++i4) {
            for (int i5 = 0; i5 < 3; ++i5) {
            #pragma HLS pipeline II=1
              // compute body (115605504 MACs per frame)
            }
          }
        }
      }
    }
  }
}

void task32_task33_task34(ap_int<8> arg0[256][14][14], ap_int<8> arg1[256][14][14], ap_int<8> arg2[256][14][14], ap_int<8> arg3[2][2][2], ap_int<8> arg4[2][2][2], ap_int<8> arg5[2][2][2], ap_int<8> arg6, ap_int<8> arg7) {
#pragma HLS inline off
  for (int i0 = 0; i0 < 256; ++i0) {
    for (int i1 = 0; i1 < 256; ++i1) {
      for (int i2 = 0; i2 < 14; ++i2) {
        for (int i3 = 0; i3 < 14; ++i3) {
          for (int i4 = 0; i4 < 3; ++i4) {
            for (int i5 = 0; i5 < 3; ++i5) {
            #pragma HLS pipeline II=1
              // compute body (115605504 MACs per frame)
            }
          }
        }
      }
    }
  }
}

void task35_task36(ap_int<8> arg0[256][14][14], ap_int<8> arg1[512][7][7], ap_int<8> arg2[2][2][2]) {
#pragma HLS inline off
  for (int i0 = 0; i0 < 512; ++i0) {
    for (int i1 = 0; i1 < 256; ++i1) {
      for (int i2 = 0; i2 < 7; ++i2) {
        for (int i3 = 0; i3 < 7; ++i3) {
          for (int i4 = 0; i4 < 3; ++i4) {
            for (int i5 = 0; i5 < 3; ++i5) {
            #pragma HLS pipeline II=1
              // compute body (57802752 MACs per frame)
            }
          }
        }
      }
    }
  }
}

void task37(ap_int<8> arg0[512][7][7], ap_int<8> arg1[512][7][7]) {
#pragma HLS inline off
  for (int i0 = 0; i0 < 512; ++i0) {
    for (int i1 = 0; i1 < 512; ++i1) {
      for (int i2 = 0; i2 < 7; ++i2) {
        for (int i3 = 0; i3 < 7; ++i3) {
          for (int i4 = 0; i4 < 3; ++i4) {
            for (int i5 = 0; i5 < 3; ++i5) {
            #pragma HLS pipeline II=1
              // compute body (115605504 MACs per frame)
            }
          }
        }
      }
    }
  }
}

void task38_task39_task40(ap_int<8> arg0[256][14][14], ap_int<8> arg1[512][7][7], ap_int<8> arg2[512][7][7], ap_int<8> arg3[2][2][2], ap_int<8> arg4) {
#pragma HLS inline off
  for (int i0 = 0; i0 < 512; ++i0) {
    for (int i1 = 0; i1 < 256; ++i1) {
      for (int i2 = 0; i2 < 7; ++i2) {
        for (int i3 = 0; i3 < 7; ++i3) {
          for (int i4 = 0; i4 < 1; ++i4) {
            for (int i5 = 0; i5 < 1; ++i5) {
            #pragma HLS pipeline II=1
              // compute body (6422528 MACs per frame)
            }
          }
        }
      }
    }
  }
}

void task41_task42(ap_int<8> arg0[512][7][7], ap_int<8> arg1[512][7][7]) {
#pragma HLS inline off
  for (int i0 = 0; i0 < 512; ++i0) {
    for (int i1 = 0; i1 < 512; ++i1) {
      for (int i2 = 0; i2 < 7; ++i2) {
        for (int i3 = 0; i3 < 7; ++i3) {
          for (int i4 = 0; i4 < 3; ++i4) {
            for (int i5 = 0; i5 < 3; ++i5) {
            #pragma HLS pipeline II=1
              // compute body (115605504 MACs per frame)
            }
          }
        }
      }
    }
  }
}

void task43_task44_task45_task46_task47_task48(ap_int<8> arg0[512][7][7], ap_int<8> arg1[512][7][7], ap_int<8> arg2[1000]) {
#pragma HLS inline off
  for (int i0 = 0; i0 < 512; ++i0) {
    for (int i1 = 0; i1 < 512; ++i1) {
      for (int i2 = 0; i2 < 7; ++i2) {
        for (int i3 = 0; i3 < 7; ++i3) {
          for (int i4 = 0; i4 < 3; ++i4) {
            for (int i5 = 0; i5 < 3; ++i5) {
            #pragma HLS pipeline II=1
              // compute body (116117504 MACs per frame)
            }
          }
        }
      }
    }
  }
}

void resnet_18_top() {
#pragma HLS dataflow
  // input: soft FIFO in external memory (AXI master)
  static ap_int<8> input[3][224][224];
#pragma HLS interface m_axi port=input bundle=gmem
  static ap_int<8> input_tile0[2][2][2];
#pragma HLS stream variable=input_tile0 depth=2
  // task0_task1_task2_out0: soft FIFO in external memory (AXI master)
  static ap_int<8> task0_task1_task2_out0[64][56][56];
#pragma HLS interface m_axi port=task0_task1_task2_out0 bundle=gmem
  static ap_int<8> task0_task1_task2_out0_tile2[2][2][2];
#pragma HLS stream variable=task0_task1_task2_out0_tile2 depth=2
  static ap_int<8> task0_task1_task2_out0_tile1[2][2][2];
#pragma HLS stream variable=task0_task1_task2_out0_tile1 depth=2
  static ap_int<8> task0_task1_task2_out0_tile0[2][2][2];
#pragma HLS stream variable=task0_task1_task2_out0_tile0 depth=2
  // task3_task4_out0: soft FIFO in external memory (AXI master)
  static ap_int<8> task3_task4_out0[64][56][56];
#pragma HLS interface m_axi port=task3_task4_out0 bundle=gmem
  static ap_int<8> task3_task4_out0_tile1[2][2][2];
#pragma HLS stream variable=task3_task4_out0_tile1 depth=2
  static ap_int<8> task3_task4_out0_tile0[2][2][2];
#pragma HLS stream variable=task3_task4_out0_tile0 depth=2
  // task5_task6_task7_out0: soft FIFO in external memory (AXI master)
  static ap_int<8> task5_task6_task7_out0[64][56][56];
#pragma HLS interface m_axi port=task5_task6_task7_out0 bundle=gmem
  static ap_int<8> task5_task6_task7_out0_tile2[2][2][2];
#pragma HLS stream variable=task5_task6_task7_out0_tile2 depth=2
  static ap_int<8> task5_task6_task7_out0_tile1[2][2][2];
#pragma HLS stream variable=task5_task6_task7_out0_tile1 depth=2
  static ap_int<8> task5_task6_task7_out0_tile0[2][2][2];
#pragma HLS stream variable=task5_task6_task7_out0_tile0 depth=2
  // task8_task9_out0: soft FIFO in external memory (AXI master)
  static ap_int<8> task8_task9_out0[64][56][56];
#pragma HLS interface m_axi port=task8_task9_out0 bundle=gmem
  static ap_int<8> task8_task9_out0_tile1[2][2][2];
#pragma HLS stream variable=task8_task9_out0_tile1 depth=2
  static ap_int<8> task8_task9_out0_tile0[2][2][2];
#pragma HLS stream variable=task8_task9_out0_tile0 depth=2
  // task10_task11_task12_out0: soft FIFO in external memory (AXI master)
  static ap_int<8> task10_task11_task12_out0[64][56][56];
#pragma HLS interface m_axi port=task10_task11_task12_out0 bundle=gmem
  static ap_int<8> task10_task11_task12_out0_tile2[2][2][2];
#pragma HLS stream variable=task10_task11_task12_out0_tile2 depth=2
  static ap_int<8> task10_task11_task12_out0_tile1[2][2][2];
#pragma HLS stream variable=task10_task11_task12_out0_tile1 depth=2
  static ap_int<8> task10_task11_task12_out0_tile0[2][2][2];
#pragma HLS stream variable=task10_task11_task12_out0_tile0 depth=2
  // task13_task14_out0: soft FIFO in external memory (AXI master)
  static ap_int<8> task13_task14_out0[128][28][28];
#pragma HLS interface m_axi port=task13_task14_out0 bundle=gmem
  static ap_int<8> task13_task14_out0_tile1[2][2][2];
#pragma HLS stream variable=task13_task14_out0_tile1 depth=2
  static ap_int<8> task13_task14_out0_tile0[2][2][2];
#pragma HLS stream variable=task13_task14_out0_tile0 depth=2
  // task15_out0: soft FIFO in external memory (AXI master)
  static ap_int<8> task15_out0[128][28][28];
#pragma HLS interface m_axi port=task15_out0 bundle=gmem
  static ap_int<8> task15_out0_tile1[2][2][2];
#pragma HLS stream variable=task15_out0_tile1 depth=2
  static ap_int<8> task15_out0_tile0[2][2][2];
#pragma HLS stream variable=task15_out0_tile0 depth=2
  // task16_task17_task18_out0: soft FIFO in external memory (AXI master)
  static ap_int<8> task16_task17_task18_out0[128][28][28];
#pragma HLS interface m_axi port=task16_task17_task18_out0 bundle=gmem
  static ap_int<8> task16_task17_task18_out0_tile2[2][2][2];
#pragma HLS stream variable=task16_task17_task18_out0_tile2 depth=2
  static ap_int<8> task16_task17_task18_out0_tile1[2][2][2];
#pragma HLS stream variable=task16_task17_task18_out0_tile1 depth=2
  static ap_int<8> task16_task17_task18_out0_tile0[2][2][2];
#pragma HLS stream variable=task16_task17_task18_out0_tile0 depth=2
  // task19_task20_out0: soft FIFO in external memory (AXI master)
  static ap_int<8> task19_task20_out0[128][28][28];
#pragma HLS interface m_axi port=task19_task20_out0 bundle=gmem
  static ap_int<8> task19_task20_out0_tile1[2][2][2];
#pragma HLS stream variable=task19_task20_out0_tile1 depth=2
  static ap_int<8> task19_task20_out0_tile0[2][2][2];
#pragma HLS stream variable=task19_task20_out0_tile0 depth=2
  // task21_task22_task23_out0: soft FIFO in external memory (AXI master)
  static ap_int<8> task21_task22_task23_out0[128][28][28];
#pragma HLS interface m_axi port=task21_task22_task23_out0 bundle=gmem
  static ap_int<8> task21_task22_task23_out0_tile2[2][2][2];
#pragma HLS stream variable=task21_task22_task23_out0_tile2 depth=2
  static ap_int<8> task21_task22_task23_out0_tile1[2][2][2];
#pragma HLS stream variable=task21_task22_task23_out0_tile1 depth=2
  static ap_int<8> task21_task22_task23_out0_tile0[2][2][2];
#pragma HLS stream variable=task21_task22_task23_out0_tile0 depth=2
  // task24_task25_out0: soft FIFO in external memory (AXI master)
  static ap_int<8> task24_task25_out0[256][14][14];
#pragma HLS interface m_axi port=task24_task25_out0 bundle=gmem
  static ap_int<8> task24_task25_out0_tile1[2][2][2];
#pragma HLS stream variable=task24_task25_out0_tile1 depth=2
  static ap_int<8> task24_task25_out0_tile0[2][2][2];
#pragma HLS stream variable=task24_task25_out0_tile0 depth=2
  // task26_out0: soft FIFO in external memory (AXI master)
  static ap_int<8> task26_out0[256][14][14];
#pragma HLS interface m_axi port=task26_out0 bundle=gmem
  static ap_int<8> task26_out0_tile1[2][2][2];
#pragma HLS stream variable=task26_out0_tile1 depth=2
  static ap_int<8> task26_out0_tile0[2][2][2];
#pragma HLS stream variable=task26_out0_tile0 depth=2
  // task27_task28_task29_out0: soft FIFO in external memory (AXI master)
  static ap_int<8> task27_task28_task29_out0[256][14][14];
#pragma HLS interface m_axi port=task27_task28_task29_out0 bundle=gmem
  static ap_int<8> task27_task28_task29_out0_tile2[2][2][2];
#pragma HLS stream variable=task27_task28_task29_out0_tile2 depth=2
  static ap_int<8> task27_task28_task29_out0_tile1[2][2][2];
#pragma HLS stream variable=task27_task28_task29_out0_tile1 depth=2
  static ap_int<8> task27_task28_task29_out0_tile0[2][2][2];
#pragma HLS stream variable=task27_task28_task29_out0_tile0 depth=2
  // task30_task31_out0: soft FIFO in external memory (AXI master)
  static ap_int<8> task30_task31_out0[256][14][14];
#pragma HLS interface m_axi port=task30_task31_out0 bundle=gmem
  static ap_int<8> task30_task31_out0_tile1[2][2][2];
#pragma HLS stream variable=task30_task31_out0_tile1 depth=2
  static ap_int<8> task30_task31_out0_tile0[2][2][2];
#pragma HLS stream variable=task30_task31_out0_tile0 depth=2
  // task32_task33_task34_out0: soft FIFO in external memory (AXI master)
  static ap_int<8> task32_task33_task34_out0[256][14][14];
#pragma HLS interface m_axi port=task32_task33_task34_out0 bundle=gmem
  static ap_int<8> task32_task33_task34_out0_tile2[2][2][2];
#pragma HLS stream variable=task32_task33_task34_out0_tile2 depth=2
  static ap_int<8> task32_task33_task34_out0_tile1[2][2][2];
#pragma HLS stream variable=task32_task33_task34_out0_tile1 depth=2
  static ap_int<8> task32_task33_task34_out0_tile0[2][2][2];
#pragma HLS stream variable=task32_task33_task34_out0_tile0 depth=2
  static ap_int<8> task35_task36_out0[512][7][7];
#pragma HLS stream variable=task35_task36_out0 depth=2
  static ap_int<8> task37_out0[512][7][7];
#pragma HLS stream variable=task37_out0 depth=2
  static ap_int<8> task38_task39_task40_out0[512][7][7];
#pragma HLS stream variable=task38_task39_task40_out0 depth=2
  static ap_int<8> task41_task42_out0[512][7][7];
#pragma HLS stream variable=task41_task42_out0 depth=2
  static ap_int<8> task43_task44_task45_task46_task47_task48_out0[1000];
#pragma HLS stream variable=task43_task44_task45_task46_task47_task48_out0 depth=2
  task0_task1_task2(input, task0_task1_task2_out0, input_tile0, task0_task1_task2_out0_tile0, v341);
  task3_task4(task0_task1_task2_out0, task3_task4_out0, task0_task1_task2_out0_tile1, task3_task4_out0_tile0);
  task5_task6_task7(task3_task4_out0, task0_task1_task2_out0, task5_task6_task7_out0, task0_task1_task2_out0_tile2, task3_task4_out0_tile1, task5_task6_task7_out0_tile0, v341, v344);
  task8_task9(task5_task6_task7_out0, task8_task9_out0, task5_task6_task7_out0_tile1, task8_task9_out0_tile0);
  task10_task11_task12(task8_task9_out0, task5_task6_task7_out0, task10_task11_task12_out0, task5_task6_task7_out0_tile2, task8_task9_out0_tile1, task10_task11_task12_out0_tile0, v344, v347);
  task13_task14(task10_task11_task12_out0, task13_task14_out0, task10_task11_task12_out0_tile1, task13_task14_out0_tile0);
  task15(task13_task14_out0, task15_out0, task13_task14_out0_tile1, task15_out0_tile0);
  task16_task17_task18(task10_task11_task12_out0, task15_out0, task16_task17_task18_out0, task10_task11_task12_out0_tile2, task15_out0_tile1, task16_task17_task18_out0_tile0, v347, v350);
  task19_task20(task16_task17_task18_out0, task19_task20_out0, task16_task17_task18_out0_tile1, task19_task20_out0_tile0);
  task21_task22_task23(task19_task20_out0, task16_task17_task18_out0, task21_task22_task23_out0, task16_task17_task18_out0_tile2, task19_task20_out0_tile1, task21_task22_task23_out0_tile0, v350, v353);
  task24_task25(task21_task22_task23_out0, task24_task25_out0, task21_task22_task23_out0_tile1, task24_task25_out0_tile0);
  task26(task24_task25_out0, task26_out0, task24_task25_out0_tile1, task26_out0_tile0);
  task27_task28_task29(task21_task22_task23_out0, task26_out0, task27_task28_task29_out0, task21_task22_task23_out0_tile2, task26_out0_tile1, task27_task28_task29_out0_tile0, v353, v356);
  task30_task31(task27_task28_task29_out0, task30_task31_out0, task27_task28_task29_out0_tile1, task30_task31_out0_tile0);
  task32_task33_task34(task30_task31_out0, task27_task28_task29_out0, task32_task33_task34_out0, task27_task28_task29_out0_tile2, task30_task31_out0_tile1, task32_task33_task34_out0_tile0, v356, v359);
  task35_task36(task32_task33_task34_out0, task35_task36_out0, task32_task33_task34_out0_tile1);
  task37(task35_task36_out0, task37_out0);
  task38_task39_task40(task32_task33_task34_out0, task37_out0, task38_task39_task40_out0, task32_task33_task34_out0_tile2, v359);
  task41_task42(task38_task39_task40_out0, task41_task42_out0);
  task43_task44_task45_task46_task47_task48(task41_task42_out0, task38_task39_task40_out0, task43_task44_task45_task46_task47_task48_out0);
}

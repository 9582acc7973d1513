// Generated by the HIDA reproduction HLS C++ emitter.
#include <ap_int.h>
#include <hls_stream.h>
#include <cstring>

void scale(float arg0[64][64], float arg1[64][64]) {
#pragma HLS inline off
  for (int i0 = 0; i0 < 64; ++i0) {
    for (int i1 = 0; i1 < 64; ++i1) {
    #pragma HLS pipeline II=1
      // compute body (4096 MACs per frame)
    }
  }
}

void tile_load(float arg0[64][64], float arg1[16][64]) {
#pragma HLS inline off
  for (int i0 = 0; i0 < 16; ++i0) {
    for (int i1 = 0; i1 < 64; ++i1) {
    #pragma HLS pipeline II=1
      // compute body (0 MACs per frame)
    }
  }
}

void tile_compute(float arg0[16][64], float arg1[16][64]) {
#pragma HLS inline off
  for (int i0 = 0; i0 < 16; ++i0) {
    for (int i1 = 0; i1 < 64; ++i1) {
      for (int i2 = 0; i2 < 64; ++i2) {
      #pragma HLS pipeline II=1
        // compute body (65536 MACs per frame)
      }
    }
  }
}

void tile_store(float arg0[16][64], float arg1[64][64]) {
#pragma HLS inline off
  for (int i0 = 0; i0 < 16; ++i0) {
    for (int i1 = 0; i1 < 64; ++i1) {
    #pragma HLS pipeline II=1
      // compute body (0 MACs per frame)
    }
  }
}

void tiled(float arg0[64][64], float arg1[64][64]) {
#pragma HLS inline off
  for (int i0 = 0; i0 < 4; ++i0) {
  #pragma HLS dataflow
    static float tile_in[16][64];
  #pragma HLS stream variable=tile_in depth=2
    static float tile_out[16][64];
  #pragma HLS stream variable=tile_out depth=2
    tile_load(arg0, tile_in);
    tile_compute(tile_in, tile_out);
    tile_store(tile_out, arg1);
  }
}

void nested_top() {
#pragma HLS dataflow
  static float x[64][64];
#pragma HLS stream variable=x depth=2
  static float y[64][64];
#pragma HLS stream variable=y depth=2
  static float z[64][64];
#pragma HLS stream variable=z depth=2
  scale(x, y);
  tiled(y, z);
}

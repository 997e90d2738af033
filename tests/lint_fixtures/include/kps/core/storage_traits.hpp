// Fixture: an option struct with one field that only a test sets.
#pragma once

namespace kps {

struct StorageConfig {
  int k_max = 1024;       // set by bench/fixture_bench.cpp
  double seed = 1;        // set there by a designated initializer
  int test_only_knob = 0; // set only by tests/fixture_test.cpp

  int validate() const {
    int probe = 0;  // a local in a member body is not a field
    return probe;
  }
};

}  // namespace kps

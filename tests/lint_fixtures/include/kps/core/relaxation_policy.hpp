// Fixture: the second option struct, every field set by a bench.
#pragma once

namespace kps {

struct AdaptiveKConfig {
  int k_max = 1024;
  int interval = 128;
};

}  // namespace kps

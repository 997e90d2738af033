// Fixture: a bench that sets options both ways.  A comparison and a
// comment do not count as setting one.
#include "core/relaxation_policy.hpp"
#include "core/storage_traits.hpp"

int main() {
  kps::StorageConfig cfg{.seed = 2};
  cfg.k_max = 4;
  kps::AdaptiveKConfig acfg;
  acfg.interval = 8;
  // cfg.test_only_knob = 1;
  return cfg.test_only_knob == 0 ? 0 : 1;
}

// Fixture: the only file that sets test_only_knob is a test.
#include "core/storage_traits.hpp"

int main() {
  kps::StorageConfig cfg;
  cfg.test_only_knob = 3;
  return cfg.validate();
}

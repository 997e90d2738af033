// Fixture: seam sites whose catalog Kind agrees or disagrees with the
// macro.  KPS_FAILPOINT_FAIL is a FAIL seam; KPS_FAILPOINT is timing-only.
#pragma once

inline bool seam_kinds() {
  KPS_FAILPOINT("timing.ok");
  KPS_FAILPOINT("timing.says_fail");
  return KPS_FAILPOINT_FAIL("fail.ok") || KPS_FAILPOINT_FAIL("fail.says_timing");
}

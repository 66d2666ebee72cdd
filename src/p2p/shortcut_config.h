#pragma once

#include "common/time.h"

namespace wow::p2p {

/// Knobs of the adaptive shortcut policy (§IV-E).  Standalone so
/// NodeConfig can embed it without dragging in the overlord itself;
/// ShortcutOverlord::Config aliases this.
struct ShortcutConfig {
  bool enabled = true;
  /// Leak rate c, in packets per second.
  double service_rate = 0.5;
  /// Score above which a shortcut is requested.
  double threshold = 10.0;
  /// Practical limit on simultaneous shortcut connections (§IV-E
  /// notes maintenance overhead bounds this).
  int max_shortcuts = 16;
};

}  // namespace wow::p2p

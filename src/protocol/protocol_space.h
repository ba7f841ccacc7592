// The protocol space of Fig. 3 / Fig. 4.
//
// Every consistent-recovery protocol occupies a point in a two-dimensional
// space: effort spent identifying/converting non-determinism (x axis) and
// effort spent committing only visible events (y axis). The points are the
// rows of ProtocolRules() (protocol.h); this module derives the design-
// variable trends of Fig. 4 from a point (commit frequency/performance grow
// with radial distance; recovery time grows along x; surviving propagation
// failures favors distance from the x axis) and plots the space.

#ifndef FTX_SRC_PROTOCOL_PROTOCOL_SPACE_H_
#define FTX_SRC_PROTOCOL_PROTOCOL_SPACE_H_

#include <string>

#include "src/protocol/protocol.h"

namespace ftx_proto {

// Fig. 4 trends, computed from a point's coordinates.
struct DesignVariables {
  double relative_commit_frequency;  // decreases with radial distance
  double recovery_constraint;        // reexecution constraint grows along x
  double propagation_survival;       // chance to survive propagation
                                     //   failures grows with y, shrinks with x
};
DesignVariables DeriveDesignVariables(const SpacePoint& point);

// Renders an ASCII plot of the space (for the fig3 bench and docs).
std::string RenderProtocolSpaceAscii(int width = 72, int height = 20);

}  // namespace ftx_proto

#endif  // FTX_SRC_PROTOCOL_PROTOCOL_SPACE_H_

#include "src/protocol/protocol_space.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

namespace ftx_proto {

DesignVariables DeriveDesignVariables(const SpacePoint& point) {
  DesignVariables v;
  double radial = std::sqrt(point.nd_effort * point.nd_effort +
                            point.visible_effort * point.visible_effort);
  v.relative_commit_frequency = std::max(0.0, 1.0 - radial / std::sqrt(2.0));
  v.recovery_constraint = point.nd_effort;
  v.propagation_survival =
      std::clamp(point.visible_effort * (1.0 - 0.5 * point.nd_effort), 0.0, 1.0);
  return v;
}

std::string RenderProtocolSpaceAscii(int width, int height) {
  std::vector<std::string> canvas(static_cast<size_t>(height), std::string(width, ' '));
  // Axes.
  for (int y = 0; y < height; ++y) {
    canvas[static_cast<size_t>(y)][0] = '|';
  }
  for (int x = 0; x < width; ++x) {
    canvas[static_cast<size_t>(height - 1)][static_cast<size_t>(x)] = '-';
  }
  canvas[static_cast<size_t>(height - 1)][0] = '+';

  for (const ProtocolRule& rule : ProtocolRules()) {
    int x = 2 + static_cast<int>(rule.point.nd_effort * (width - 20));
    int y = height - 2 - static_cast<int>(rule.point.visible_effort * (height - 3));
    x = std::clamp(x, 1, width - 2);
    y = std::clamp(y, 0, height - 2);
    std::string label = "*" + std::string(rule.name);
    for (size_t i = 0; i < label.size() && x + static_cast<int>(i) < width; ++i) {
      char& cell = canvas[static_cast<size_t>(y)][static_cast<size_t>(x) + i];
      if (cell == ' ' || i == 0) {
        cell = label[i];
      }
    }
  }

  std::string out = "effort to commit only visible events (y) vs effort to identify/convert "
                    "non-determinism (x)\n";
  for (const std::string& row : canvas) {
    out += row;
    out += '\n';
  }
  return out;
}

}  // namespace ftx_proto

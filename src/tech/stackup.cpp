#include "tech/stackup.hpp"

#include <algorithm>
#include <cassert>

namespace gia::tech {

int Stackup::metal_layer_count() const {
  return static_cast<int>(std::count_if(layers_.begin(), layers_.end(), [](const Layer& l) {
    return l.kind == LayerKind::Metal;
  }));
}

std::vector<int> Stackup::metal_indices() const {
  std::vector<int> out;
  for (int i = 0; i < static_cast<int>(layers_.size()); ++i) {
    if (layers_[i].kind == LayerKind::Metal) out.push_back(i);
  }
  return out;
}

double Stackup::total_thickness_um() const {
  double t = 0;
  for (const auto& l : layers_) t += l.thickness_um;
  return t;
}

double Stackup::dielectric_between_um(int metal_a, int metal_b) const {
  assert(metal_a >= 0 && metal_a < static_cast<int>(layers_.size()));
  assert(metal_b >= 0 && metal_b < static_cast<int>(layers_.size()));
  const int lo = std::min(metal_a, metal_b), hi = std::max(metal_a, metal_b);
  double t = 0;
  for (int i = lo + 1; i < hi; ++i) {
    if (layers_[i].kind != LayerKind::Metal) t += layers_[i].thickness_um;
  }
  return t;
}

double Stackup::depth_from_top_um(int metal_index) const {
  assert(metal_index >= 0 && metal_index < static_cast<int>(layers_.size()));
  double t = 0;
  for (int i = metal_index + 1; i < static_cast<int>(layers_.size()); ++i) {
    t += layers_[i].thickness_um;
  }
  return t;
}

}  // namespace gia::tech

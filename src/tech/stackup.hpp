#pragma once

#include <string>
#include <vector>

#include "tech/material.hpp"

/// \file stackup.hpp
/// Layered cross-section description of an interposer: alternating metal and
/// dielectric layers over a substrate (Fig 1 / Table I of the paper). The
/// extraction, PDN and thermal engines all consume this.

namespace gia::tech {

enum class LayerKind { Metal, Dielectric, Substrate };

/// Role a metal layer plays after PDN insertion (Section VI-B: the PDN adds
/// two plane layers, power directly above ground).
enum class MetalRole { Signal, Power, Ground, Unassigned };

struct Layer {
  std::string name;
  LayerKind kind = LayerKind::Dielectric;
  Material material;
  double thickness_um = 1.0;
  MetalRole role = MetalRole::Unassigned;  ///< meaningful for Metal layers only
};

/// A stackup is ordered bottom (index 0, closest to package substrate) to
/// top (closest to the chiplets).
class Stackup {
 public:
  Stackup() = default;
  explicit Stackup(std::vector<Layer> layers) : layers_(std::move(layers)) {}

  void append(Layer l) { layers_.push_back(std::move(l)); }
  const std::vector<Layer>& layers() const { return layers_; }
  Layer& layer(int i) { return layers_.at(static_cast<std::size_t>(i)); }
  const Layer& layer(int i) const { return layers_.at(static_cast<std::size_t>(i)); }

  int metal_layer_count() const;
  /// Indices (into layers()) of metal layers, bottom to top.
  std::vector<int> metal_indices() const;
  /// Total stack height [um].
  double total_thickness_um() const;
  /// Dielectric thickness between two adjacent metal layers [um]; returns the
  /// sum of dielectric layers strictly between them.
  double dielectric_between_um(int metal_a, int metal_b) const;
  /// Distance from the top of the stack down to a metal layer [um] (proxy for
  /// how far the PDN sits from the chiplet bumps -- a first-order driver of
  /// PDN impedance per Section VII-D).
  double depth_from_top_um(int metal_index) const;

 private:
  std::vector<Layer> layers_;
};

}  // namespace gia::tech

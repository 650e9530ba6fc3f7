#pragma once

#include <optional>

#include "chiplet/pnr_flow.hpp"
#include "chiplet/system.hpp"
#include "interposer/design.hpp"
#include "netlist/openpiton.hpp"
#include "netlist/serdes.hpp"
#include "partition/fm.hpp"
#include "partition/partition.hpp"
#include "pdn/impedance.hpp"
#include "pdn/ir_drop.hpp"
#include "pdn/settling.hpp"
#include "signal/eye.hpp"
#include "signal/link_sim.hpp"
#include "thermal/analysis.hpp"

/// \file flow.hpp
/// The full chiplet/interposer co-design flow of Fig 4 (run by one call,
/// `stage::execute_flow`): netlist generation ->
/// SerDes insertion -> hierarchical partitioning -> chiplet PnR ->
/// interposer design -> SI / PI / thermal analysis -> full-chip rollup. One
/// TechnologyResult is one column of the paper's comparison tables.
///
/// Internally the flow is an explicit stage DAG (core/stagegraph.hpp) with
/// per-stage content-addressed artifacts: repeated evaluations that differ
/// only in downstream knobs (eye_bits, thermal mesh, rollup activity) reuse
/// the cached upstream PnR/interposer artifacts, and independent stages run
/// concurrently through core/parallel. The result is byte-identical to a
/// serial, uncached evaluation.

namespace gia::core {

/// Which chipletization branch of Fig 4 to run.
enum class PartitionMode {
  Hierarchical,  ///< the paper's choice: L3 + interface logic = memory chiplet
  Flattened      ///< Fiduccia-Mattheyses min-cut on the flattened netlist
};

struct FlowOptions {
  /// N-chiplet system description. The default (Arrangement::Legacy) runs
  /// the paper's fixed two-tile study byte-identically to the pre-system
  /// schema; grid/hex/placed arrangements run the generalized K-chiplet
  /// path (interposer technologies only).
  chiplet::SystemConfig system;
  netlist::OpenPitonConfig openpiton;
  netlist::SerDesConfig serdes;
  PartitionMode partition_mode = PartitionMode::Hierarchical;
  partition::FmConfig fm;  ///< used when partition_mode == Flattened
  chiplet::PnrOptions pnr;
  interposer::RouterOptions router;
  thermal::MeshOptions thermal_mesh;
  /// Run the expensive analyses (eye diagrams, thermal solve). Tables II-IV
  /// do not need them; benches for Fig 14/17 do.
  bool with_eyes = false;
  bool with_thermal = false;
  int eye_bits = 96;
  /// Interconnect activity convention for the full-chip power rollup: the
  /// paper books lanes at their worst-case (toggle-every-bit) channel power
  /// (Table V feeding Table IV), i.e. 0.5 * f * C * V^2 -- 2x our random
  /// data convention.
  double rollup_activity_scale = 2.0;
};

struct LinkStudy {
  signal::LinkSpec spec;
  signal::LinkResult result;
  std::optional<signal::EyeResult> eye;
};

struct TechnologyResult {
  tech::Technology technology;
  netlist::SerDesReport serdes;
  partition::PartitionResult partition;
  chiplet::ChipletPair plans;                 // Table II
  chiplet::ChipletPnrResult logic, memory;    // Table III
  interposer::InterposerDesign interposer;    // Table IV (layout half)
  LinkStudy l2m, l2l;                         // Table V
  pdn::PdnModel pdn_model;
  pdn::ImpedanceProfile pdn_impedance;        // Fig 15
  pdn::IrDropResult ir_drop;                  // Table IV
  pdn::SettlingResult settling;               // Table IV
  std::optional<thermal::ThermalReport> thermal;  // Figs 16-18

  /// Full-chip power (Table IV row): four chiplets + all interposer lanes
  /// at the rollup activity.
  double total_power_w = 0;
  /// System clock = slowest chiplet (Section VII-H).
  double system_fmax_hz = 0;
  /// Do the off-chip link delays fit inside the pipelined clock period?
  bool link_timing_met = false;
};

/// The 2D monolithic reference row of Table IV: the same two tiles as one
/// die, no SerDes, no AIB drivers, no interposer.
struct MonolithicResult {
  long cells = 0;
  double wirelength_m = 0;
  double total_power_w = 0;
  double footprint_mm = 1.6;  ///< Table IV: 1.6 x 1.6 mm
  double area_mm2() const { return footprint_mm * footprint_mm; }
};
MonolithicResult run_monolithic_reference(const FlowOptions& opts = {});

}  // namespace gia::core

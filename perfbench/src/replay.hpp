#pragma once

#include "bench.hpp"
#include "core/flow.hpp"

/// \file replay.hpp
/// Layer-by-layer replay of one flow evaluation. It calls each layer's public
/// entry point in stage order with the inputs the stage graph gives it and
/// records a benchmark span around every call ("replay/<stage>" parents, layer
/// children such as "chiplet.pnr_die" or "interposer.route"). The assembled
/// result must serialize byte-identically to `execute_flow`'s, which is how
/// the benchmark proves the per-layer times describe the same work.

namespace perfbench {

/// Replay the flow for one technology, recording spans into `trace`.
gia::core::TechnologyResult replay_flow(gia::tech::TechnologyKind kind,
                                        const gia::core::FlowOptions& opts, Trace& trace);

}  // namespace perfbench

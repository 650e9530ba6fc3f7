#pragma once

#include <map>
#include <string>

#include "bench.hpp"

/// \file workloads.hpp
/// The benchmark's named workloads. Each fills `rep` with the end-to-end
/// metrics (untraced run) or the per-layer metrics (traced run), counts the
/// ops it attempted and those that failed, and checks every output.

namespace perfbench {

/// Context shared by the workloads.
struct RunContext {
  Args args;
  double static_init_s = 0;     ///< process spawn to the start of main()
  DigestTable recorded;         ///< default-seed digests (empty when recording)
  std::map<std::string, std::string> digests;  ///< computed reference digests, by key
  Trace trace;                  ///< replay spans, written out at exit
};

/// paper6: the paper's six-technology study, cold, eyes and thermal on.
void run_paper6(RunContext& ctx, Report& rep);
/// grid16: one cold 16-die Glass 2.5D grid flow.
void run_grid16(RunContext& ctx, Report& rep);
/// giad_session: an in-process giad driven over loopback by three clients.
void run_giad_session(RunContext& ctx, Report& rep);

}  // namespace perfbench

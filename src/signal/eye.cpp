#include "signal/eye.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/instrument.hpp"
#include "core/parallel.hpp"

namespace gia::signal {

double EyeResult::q_factor() const {
  const double denom = sigma_high_v + sigma_low_v;
  if (denom < 1e-9) return 1e3;
  return std::max(0.0, (mean_high_v - mean_low_v) / denom);
}

double EyeResult::ber_estimate() const {
  return 0.5 * std::erfc(q_factor() / std::sqrt(2.0));
}

namespace {

/// Accumulated level statistics at the sampling phase. Partials are folded
/// in chunk order by ordered_reduce, so the merged sums are byte-identical
/// at any thread count.
struct LevelStats {
  double min_high = 1e300, max_low = -1e300;
  double sum_h = 0, sq_h = 0, sum_l = 0, sq_l = 0;
  long n_h = 0, n_l = 0;
};

LevelStats merge(LevelStats a, const LevelStats& b) {
  a.min_high = std::min(a.min_high, b.min_high);
  a.max_low = std::max(a.max_low, b.max_low);
  a.sum_h += b.sum_h;
  a.sq_h += b.sq_h;
  a.sum_l += b.sum_l;
  a.sq_l += b.sq_l;
  a.n_h += b.n_h;
  a.n_l += b.n_l;
  return a;
}

/// UIs per reduction chunk: fixed so the chunk grid (and therefore the
/// floating-point accumulation grouping) never depends on the thread count.
constexpr std::size_t kUiGrain = 32;

}  // namespace

EyeResult measure_eye(const PrbsRun& run, const EyeConfig& cfg) {
  GIA_SPAN("signal/eye_measure");
  const double ui = run.ui_s;
  const double t_start = cfg.skip_bits * ui;
  if (run.rx.empty() || ui <= 0) throw std::invalid_argument("empty PRBS run");
  if (run.rx.duration() < t_start + 8 * ui) throw std::invalid_argument("PRBS run too short");

  EyeResult out;
  out.ui_s = ui;

  // --- Eye width: fold the threshold crossings into [0, UI) and find the
  // largest circular gap between consecutive crossing phases. The sort makes
  // the set canonical, so the fold is deterministic. The gap center doubles
  // as the sampling phase.
  std::vector<double> phases = run.rx.crossings(cfg.threshold, t_start, 0);
  for (double& t : phases) t = std::fmod(t, ui);
  double sample_phase = ui / 2.0;
  if (phases.size() < 3) {
    // Degenerate: a stuck or rail-to-rail-clean channel. Width = full UI if
    // the signal actually toggles cleanly, 0 if it never crosses.
    out.width_s = phases.empty() ? 0.0 : ui;
  } else {
    std::sort(phases.begin(), phases.end());
    double best_gap = ui - phases.back() + phases.front();  // circular wrap
    double center = std::fmod(phases.back() + best_gap / 2.0, ui);
    for (std::size_t i = 1; i < phases.size(); ++i) {
      const double gap = phases[i] - phases[i - 1];
      if (gap > best_gap) {
        best_gap = gap;
        center = phases[i - 1] + gap / 2.0;
      }
    }
    out.width_s = best_gap;
    sample_phase = center;
  }

  // --- Eye height: sample every UI after the warm-up at the sampling phase,
  // classify by level, and take the worst separation. The reduction chunks
  // the UI index space with a fixed grain so the result is thread-count
  // independent.
  const int first_ui = cfg.skip_bits;
  const int last_ui = static_cast<int>(run.rx.duration() / ui) - 1;
  const auto total_uis = static_cast<std::size_t>(std::max(0, last_ui - first_ui));
  core::instrument::counter_add(core::instrument::Counter::EyeUis, total_uis);
  auto ui_index = [first_ui](std::size_t i) { return first_ui + static_cast<int>(i); };

  const LevelStats stats = core::ordered_reduce(
      total_uis, kUiGrain, LevelStats{},
      [&](std::size_t begin, std::size_t end) {
        LevelStats p;
        for (std::size_t i = begin; i < end; ++i) {
          const double v = run.rx.at(ui_index(i) * ui + sample_phase);
          if (v >= cfg.threshold) {
            p.min_high = std::min(p.min_high, v);
            p.sum_h += v;
            p.sq_h += v * v;
            ++p.n_h;
          } else {
            p.max_low = std::max(p.max_low, v);
            p.sum_l += v;
            p.sq_l += v * v;
            ++p.n_l;
          }
        }
        return p;
      },
      [](LevelStats acc, LevelStats p) { return merge(std::move(acc), p); });

  out.height_v =
      (stats.n_h > 0 && stats.n_l > 0) ? std::max(0.0, stats.min_high - stats.max_low) : 0.0;
  if (stats.n_h > 0) {
    out.mean_high_v = stats.sum_h / static_cast<double>(stats.n_h);
    out.sigma_high_v = std::sqrt(std::max(
        0.0, stats.sq_h / static_cast<double>(stats.n_h) - out.mean_high_v * out.mean_high_v));
  }
  if (stats.n_l > 0) {
    out.mean_low_v = stats.sum_l / static_cast<double>(stats.n_l);
    out.sigma_low_v = std::sqrt(std::max(
        0.0, stats.sq_l / static_cast<double>(stats.n_l) - out.mean_low_v * out.mean_low_v));
  }

  if (cfg.keep_traces) {
    const int samples_per_ui = std::max(4, static_cast<int>(std::lround(ui / run.rx.dt())));
    out.traces.assign(total_uis, {});
    core::parallel_for(total_uis, [&](std::size_t i) {
      const int k = ui_index(i);
      auto& trace = out.traces[i];
      trace.reserve(static_cast<std::size_t>(samples_per_ui));
      for (int j = 0; j < samples_per_ui; ++j) {
        trace.push_back(run.rx.at(k * ui + j * ui / samples_per_ui));
      }
    });
  }
  return out;
}

EyeResult simulate_eye(const LinkSpec& spec, int n_bits, const EyeConfig& cfg) {
  return measure_eye(run_prbs(spec, n_bits), cfg);
}

}  // namespace gia::signal

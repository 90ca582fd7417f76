// Wall-clock timing and per-stage time accounting.
//
// The paper's Table 1 and Figure 5 break run time into SMEM / SAL / CHAIN /
// BSW-pre / BSW / SAM-FORM / Misc; StageTimes is the accumulator the drivers
// fill and the benches print.  REGION (the post-BSW decision replay, region
// dedup and primary marking) is split out of BSW-pre and SAM-FORM because
// it is its own layer here.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string_view>

namespace mem2::util {

class Timer {
 public:
  Timer() : start_(clock::now()) {}
  void restart() { start_ = clock::now(); }
  double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

/// Pipeline stages, in paper order (Table 1).
enum class Stage : int {
  kSmem = 0,
  kSal,
  kChain,
  kBswPre,
  kBsw,
  kRegionFinalize,  // process_chains replay (batch driver; the baseline's
                    // on-demand replay stays BSW-pre) + sort_dedup_regions +
                    // mark_primary
  kSamForm,
  kPair,  // paired-end stage: rescue harvest/rounds + pair scoring + pair SAM
  kMisc,
  kCount,
};

constexpr std::string_view stage_name(Stage s) {
  constexpr std::string_view names[] = {"SMEM", "SAL",    "CHAIN", "BSW-PRE", "BSW",
                                        "REGION", "SAM", "PAIR", "MISC"};
  return names[static_cast<int>(s)];
}

struct StageTimes {
  std::array<double, static_cast<int>(Stage::kCount)> seconds{};

  double& operator[](Stage s) { return seconds[static_cast<int>(s)]; }
  double operator[](Stage s) const { return seconds[static_cast<int>(s)]; }

  double total() const {
    double t = 0;
    for (double s : seconds) t += s;
    return t;
  }

  StageTimes& operator+=(const StageTimes& o) {
    for (std::size_t i = 0; i < seconds.size(); ++i) seconds[i] += o.seconds[i];
    return *this;
  }
};

/// RAII accumulator: adds the scope's wall time to one stage slot.
class ScopedStage {
 public:
  ScopedStage(StageTimes& times, Stage stage) : times_(times), stage_(stage) {}
  ~ScopedStage() { times_[stage_] += timer_.seconds(); }
  ScopedStage(const ScopedStage&) = delete;
  ScopedStage& operator=(const ScopedStage&) = delete;

 private:
  StageTimes& times_;
  Stage stage_;
  Timer timer_;
};

}  // namespace mem2::util

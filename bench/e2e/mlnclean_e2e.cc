// mlnclean_e2e: the end-to-end benchmark program. README.md in this
// directory gives the workloads, the metrics and their bounds; run.py
// builds this binary, runs it one workload per process, and compares runs.
//
//   mlnclean_e2e --workload hai_batch --seed 42 --seconds 30 [--trace t.json]
//
// Only the public API (mlnclean/mlnclean.h) is used. The run prints one
// JSON object on stdout: end-to-end metrics, sample counts, the number of
// requests attempted and failed, the output checks, and build stamps.
//
// Every workload is single-threaded: one request at a time on the calling
// thread. Each run draws a fixed set of inputs from its seed (tables or
// served batches) and times requests over them in passes, so every input is
// timed many times. Between short segments of requests the program runs a
// fixed reference computation that uses no library code, and scales each
// request's time by how fast the reference ran around it; `latency_ms` and
// `setup_s` are reported at the reference's nominal speed (README.md, "Host
// speed").
//
// With --trace the timed requests alternate between plain and traced. A
// traced request records spans around the public calls it makes (Compile,
// RunUntil per stage, and for the server Submit/Take with the first and
// last progress event of each stage). Spans are kept in memory and written
// to the trace file when the run ends, together with work counters taken
// outside the timed region; `run.py trace` derives the per-layer metrics
// from that file. Trace file layout:
//
//   {"workload": ..., "seed": ...,
//    "spans": [[id, name, parent, request, start_us, end_us], ...],
//    "counters": {name: value, ...},
//    "overhead": {"traced_p50_ms": ..., "untraced_p50_ms": ..., ...}}
//
// A span with parent 0 is a root; times are microseconds since the run
// started.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "mlnclean/mlnclean.h"

#ifndef MLNCLEAN_E2E_BUILD_TYPE
#define MLNCLEAN_E2E_BUILD_TYPE "unknown"
#endif
#ifndef MLNCLEAN_E2E_COMPILER
#define MLNCLEAN_E2E_COMPILER "unknown"
#endif

namespace {

using namespace mlnclean;
using Clock = std::chrono::steady_clock;
using TimePoint = Clock::time_point;

// Workload constants (README.md, "Workloads").
constexpr double kErrorRate = 0.05;
constexpr double kReplacementRatio = 0.5;
constexpr double kWarmupSeconds = 1.0;
// Set-up is timed kSetupRepeatsUpFront times before timing starts (the
// last fixture is kept) and kSetupRepeatsPerWindow times after each of
// kWindows equal slices of the timed part, so its median spans the run.
constexpr size_t kWindows = 5;
constexpr int kSetupRepeatsUpFront = 3;
constexpr int kSetupRepeatsPerWindow = 3;
constexpr size_t kBatchRows = 50;
// Inputs per run. The mean of per-input costs over this many inputs moves
// little between seeds (README.md, "Workloads"), and a 30 s run still
// times every input ten times or more.
constexpr size_t kHaiBatchTables = 32;
constexpr size_t kCarBatchTables = 8;
constexpr size_t kServeTables = 16;
// The host-speed reference runs after every segment of at least this
// long, and its nominal time sets the scale of the reported times.
constexpr double kSegmentSeconds = 0.05;
constexpr double kReferenceMs = 2.5;

const char* const kStageSpan[kNumStages] = {"stage.index", "stage.agp",
                                            "stage.learn", "stage.rsc",
                                            "stage.fscr",  "stage.dedup"};

const TimePoint kOrigin = Clock::now();

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}
double Seconds(Clock::duration d) { return std::chrono::duration<double>(d).count(); }
double Us(TimePoint t) {
  return std::chrono::duration<double, std::micro>(t - kOrigin).count();
}
TimePoint After(double seconds) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
}

double Mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2.0;
}

/// Nearest-rank percentile (the convention of ServerStats::latency).
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t r = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  r = std::min(std::max<size_t>(r, 1), v.size());
  return v[r - 1];
}

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "mlnclean_e2e: %s\n", what.c_str());
  std::exit(2);
}

void Check(const Status& st, const char* what) {
  if (!st.ok()) Die(std::string(what) + ": " + st.ToString());
}

template <typename T>
T Must(Result<T> r, const char* what) {
  if (!r.ok()) Die(std::string(what) + ": " + r.status().ToString());
  return std::move(r).ValueUnsafe();
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

size_t Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<size_t>(CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// ------------------------------------------------------------- host speed

/// A fixed computation that uses no library code and allocates nothing
/// while it runs: edit distances between short strings, then a sort of
/// string keys. On the shared host the time of a request and the time of
/// this reference rise and fall together (README.md, "Host speed"), so
/// their ratio measures the code and not the host's state. Its inputs come
/// from a fixed seed, never from --seed.
class HostSpeed {
 public:
  HostSpeed() {
    std::mt19937_64 rng(20190312);
    words_.reserve(kWords);
    for (size_t i = 0; i < kWords; ++i) {
      std::string word(6 + rng() % 20, 'a');
      for (char& c : word) c = static_cast<char>('a' + rng() % 26);
      words_.push_back(std::move(word));
    }
    unsorted_.reserve(kSorted);
    for (size_t i = 0; i < kSorted; ++i) {
      unsorted_.push_back(static_cast<uint32_t>(rng() % kWords));
    }
    sorted_.resize(kSorted);
  }

  /// Runs the reference once and returns its time in ms. Every run does
  /// the same work, which its checksum confirms.
  double Measure() {
    const TimePoint start = Clock::now();
    const uint64_t sum = EditDistances() + Sort();
    const double ms = Ms(Clock::now() - start);
    if (checksum_ == 0) checksum_ = sum;
    if (sum != checksum_) Die("host-speed reference checksum changed");
    return ms;
  }

 private:
  // Sized so that the two parts take about the same time; together they
  // take about kReferenceMs on a quiet host.
  static constexpr size_t kWords = 8000;
  static constexpr size_t kPairs = 3000;
  static constexpr size_t kSorted = 8000;

  uint64_t EditDistances() {
    uint64_t sum = 0;
    for (size_t i = 0; i < kPairs; ++i) {
      const std::string& a = words_[i];
      const std::string& b = words_[(i * 7919 + 13) % kWords];
      std::array<uint32_t, 32>* prev = &row_a_;
      std::array<uint32_t, 32>* cur = &row_b_;
      for (size_t j = 0; j <= b.size(); ++j) (*prev)[j] = static_cast<uint32_t>(j);
      for (size_t x = 1; x <= a.size(); ++x) {
        (*cur)[0] = static_cast<uint32_t>(x);
        for (size_t j = 1; j <= b.size(); ++j) {
          (*cur)[j] = std::min({(*prev)[j - 1] + (a[x - 1] != b[j - 1] ? 1u : 0u),
                                (*prev)[j] + 1, (*cur)[j - 1] + 1});
        }
        std::swap(prev, cur);
      }
      sum += (*prev)[b.size()];
    }
    return sum;
  }

  uint64_t Sort() {
    std::copy(unsorted_.begin(), unsorted_.end(), sorted_.begin());
    std::sort(sorted_.begin(), sorted_.end(),
              [this](uint32_t x, uint32_t y) { return words_[x] < words_[y]; });
    return sorted_[kSorted / 2];
  }

  std::vector<std::string> words_;  // 6 to 25 letters, so rows of 32 suffice
  std::vector<uint32_t> unsorted_;
  std::vector<uint32_t> sorted_;
  std::array<uint32_t, 32> row_a_{};
  std::array<uint32_t, 32> row_b_{};
  uint64_t checksum_ = 0;
};

/// The factor that brings a time measured between two runs of the
/// reference to the reference's nominal speed.
double ScaleFactor(double reference_before_ms, double reference_after_ms) {
  return kReferenceMs / ((reference_before_ms + reference_after_ms) / 2.0);
}

// ------------------------------------------------------------------ trace

/// In-memory span and counter store, written to from the main thread only.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}
  bool on() const { return on_; }

  uint64_t NewId() { return ++last_id_; }

  void Span(uint64_t id, const char* name, uint64_t parent, int64_t request,
            TimePoint start, TimePoint end) {
    spans_.push_back({id, name, parent, request, start, end});
  }

  void Counter(const std::string& name, double value) {
    counters_.emplace_back(name, value);
  }

  void Write(const std::string& path, const std::string& workload, uint64_t seed,
             const std::vector<double>& traced_ms,
             const std::vector<double>& untraced_ms) const {
    std::ofstream out(path);
    if (!out) Die("cannot write trace file " + path);
    out << "{\"workload\": \"" << workload << "\", \"seed\": " << seed
        << ",\n\"spans\": [";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const SpanRec& s = spans_[i];
      out << (i == 0 ? "\n" : ",\n") << "[" << s.id << ", \"" << s.name << "\", "
          << s.parent << ", " << s.request << ", " << Num(Us(s.start)) << ", "
          << Num(Us(s.end)) << "]";
    }
    out << "],\n\"counters\": {";
    for (size_t i = 0; i < counters_.size(); ++i) {
      out << (i == 0 ? "" : ", ") << "\"" << counters_[i].first
          << "\": " << Num(counters_[i].second);
    }
    out << "},\n\"overhead\": {\"traced_p50_ms\": " << Num(Percentile(traced_ms, 0.5))
        << ", \"untraced_p50_ms\": " << Num(Percentile(untraced_ms, 0.5))
        << ", \"traced\": " << traced_ms.size()
        << ", \"untraced\": " << untraced_ms.size() << "}}\n";
    if (!out) Die("cannot write trace file " + path);
  }

 private:
  struct SpanRec {
    uint64_t id;
    const char* name;
    uint64_t parent;
    int64_t request;
    TimePoint start;
    TimePoint end;
  };
  bool on_;
  uint64_t last_id_ = 0;
  std::vector<SpanRec> spans_;
  std::vector<std::pair<std::string, double>> counters_;
};

/// Steps `session` through every remaining stage, one RunUntil per stage,
/// recording a span per stage under `parent`.
Status StepStages(CleanSession* session, Tracer* tracer, uint64_t parent,
                  int64_t request) {
  for (int s = static_cast<int>(session->next_stage()); s < kNumStages; ++s) {
    const uint64_t id = tracer->NewId();
    const TimePoint start = Clock::now();
    MLN_RETURN_NOT_OK(session->RunUntil(static_cast<Stage>(s)));
    tracer->Span(id, kStageSpan[s], parent, request, start, Clock::now());
  }
  return Status::OK();
}

/// Work counts of the cleaning stages, tallied from decision traces and
/// indexes outside the timed region.
struct WorkCounts {
  double gammas = 0;
  double abnormal_groups = 0;
  double agp_merged = 0;
  double rsc_replacements = 0;
  double fscr_tuples = 0;
  double fscr_conflict_tuples = 0;
  double fscr_fused = 0;
  double dedup_rows_removed = 0;

  void AddIndex(const MlnIndex& index) {
    for (const Block& block : index.blocks()) gammas += block.PieceCount();
  }

  void AddReport(const CleaningReport& report) {
    abnormal_groups += report.agp.size();
    for (const AgpMergeRecord& rec : report.agp) agp_merged += rec.merged ? 1 : 0;
    rsc_replacements += report.rsc.size();
    fscr_tuples += report.fscr.size();
    for (const FscrRecord& rec : report.fscr) {
      fscr_conflict_tuples += rec.conflict_attrs.empty() ? 0 : 1;
      fscr_fused += rec.fused ? 1 : 0;
    }
    dedup_rows_removed += report.duplicates.size();
  }

  void Record(Tracer* tracer) const {
    tracer->Counter("index.gammas", gammas);
    tracer->Counter("agp.abnormal_groups", abnormal_groups);
    tracer->Counter("agp.merged", agp_merged);
    tracer->Counter("rsc.replacements", rsc_replacements);
    tracer->Counter("fscr.tuples", fscr_tuples);
    tracer->Counter("fscr.conflict_tuples", fscr_conflict_tuples);
    tracer->Counter("fscr.fused", fscr_fused);
    tracer->Counter("dedup.rows_removed", dedup_rows_removed);
  }
};

/// Median time of compiling `rules` into a model, over a few compiles.
void RecordCompileTime(const Schema& schema, const RuleSet& rules,
                       const CleaningOptions& options, Tracer* tracer) {
  std::vector<double> ms;
  for (int i = 0; i < 5; ++i) {
    const TimePoint start = Clock::now();
    Must(CleaningEngine(options).Compile(schema, rules), "compile");
    ms.push_back(Ms(Clock::now() - start));
  }
  tracer->Counter("engine.compile_ms", Median(ms));
}

/// One session over `data` with the report on: γs after the index stage,
/// then the decision trace of the full run.
void CountWork(const CleanModel& model, const Dataset& data, SessionOptions opts,
               WorkCounts* counts) {
  opts.collect_report = true;
  CleanSession session = model.NewSession(data, opts);
  Check(session.RunUntil(Stage::kIndex), "count: index");
  counts->AddIndex(session.index());
  Check(session.Resume(), "count: resume");
  counts->AddReport(Must(session.TakeResult(), "count: result").report);
}

// ---------------------------------------------------------------- results

/// Everything one run measured.
struct RunResult {
  std::vector<double> setup_s;                // every set-up, scaled
  std::vector<std::vector<double>> scaled_ms;  // per input: its timed requests, scaled
  std::vector<double> latency_ms;             // every timed request, as measured
  std::vector<double> reference_ms;           // every run of the host-speed reference
  double rows = 0.0;                          // rows the timed requests carried
  double f1 = 0.0;                            // mean over the run's inputs
  double f1_first = 0.0;                      // on the first input
  double peak_rss_mb = 0.0;
  size_t attempted = 0;
  size_t failed = 0;
  size_t checks = 0;
  size_t mismatches = 0;
  std::vector<double> traced_ms;
  std::vector<double> untraced_ms;
  // Requests timed since the reference last ran: (input, ms).
  std::vector<std::pair<size_t, double>> pending;

  /// Records one timed request that served `input` and succeeded.
  void Timed(size_t input, double ms, size_t request_rows, bool traced) {
    latency_ms.push_back(ms);
    pending.emplace_back(input, ms);
    rows += static_cast<double>(request_rows);
    (traced ? traced_ms : untraced_ms).push_back(ms);
  }

  /// Scales the pending requests by the reference runs around them.
  void ScalePending(double reference_before_ms, double reference_after_ms) {
    const double factor = ScaleFactor(reference_before_ms, reference_after_ms);
    for (const auto& [input, ms] : pending) scaled_ms[input].push_back(ms * factor);
    pending.clear();
  }

  /// Records one output check. A mismatch fails the request.
  void CheckOutput(bool same) {
    ++checks;
    if (!same) {
      ++mismatches;
      ++failed;
    }
  }
};

/// Times a workload's set-up, each build between two runs of the host-speed
/// reference. `Build` keeps the fixture; `Repeat` builds
/// kSetupRepeatsPerWindow more and drops them (after the clock stops).
template <typename Fixture>
class SetupTimer {
 public:
  SetupTimer(std::function<Fixture()> setup, HostSpeed* host, RunResult* r)
      : setup_(std::move(setup)), host_(host), r_(r) {}

  Fixture Build() {
    for (int i = 1; i < kSetupRepeatsUpFront; ++i) BuildAndDrop();
    return Timed();
  }

  void Repeat() {
    for (int i = 0; i < kSetupRepeatsPerWindow; ++i) BuildAndDrop();
  }

 private:
  Fixture Timed() {
    const double before = Reference();
    const TimePoint start = Clock::now();
    Fixture fixture = setup_();
    const double seconds = Seconds(Clock::now() - start);
    r_->setup_s.push_back(seconds * ScaleFactor(before, Reference()));
    return fixture;
  }

  void BuildAndDrop() { const Fixture discarded = Timed(); }

  double Reference() {
    const double ms = host_->Measure();
    r_->reference_ms.push_back(ms);
    return ms;
  }

  std::function<Fixture()> setup_;
  HostSpeed* host_;
  RunResult* r_;
};

/// Whether the i-th timed request of a run is traced, when tracing is on.
/// Requests cycle over `n` inputs; flipping the choice on every pass gives
/// each input traced and plain requests, so the two halves serve the same
/// inputs.
bool Traced(const Tracer& tracer, size_t i, size_t n) {
  return tracer.on() && (i + i / n) % 2 == 1;
}

/// Runs `request` back to back for kWindows slices of `seconds` in all,
/// timing set-up again after each slice. Requests run in segments of at
/// least kSegmentSeconds with the host-speed reference between segments.
/// `request(i)` makes the i-th request of the run.
template <typename Fixture>
void TimeWindows(double seconds, SetupTimer<Fixture>* setup, HostSpeed* host,
                 RunResult* r, const std::function<void(size_t)>& request) {
  auto reference = [&] {
    const double ms = host->Measure();
    r->reference_ms.push_back(ms);
    return ms;
  };
  size_t i = 0;
  for (size_t w = 0; w < kWindows; ++w) {
    const TimePoint end = After(seconds / kWindows);
    double before = reference();
    while (Clock::now() < end) {
      const TimePoint segment_end = After(kSegmentSeconds);
      while (Clock::now() < segment_end) request(i++);
      const double after = reference();
      r->ScalePending(before, after);
      before = after;
    }
    setup->Repeat();
  }
}

Workload HaiWorkload(size_t hospitals) {
  HospitalConfig config;
  config.num_hospitals = hospitals;
  config.num_measures = 10;
  return Must(MakeHospitalWorkload(config), "hospital workload");
}

Workload CarWorkload() {
  CarConfig config;
  config.num_rows = 3000;
  return Must(MakeCarWorkload(config), "car workload");
}

/// Error-injection seed of table `j` of a run: table 0 uses the run seed
/// itself, and runs with seeds below 100000 never share a table.
uint64_t TableSeed(uint64_t seed, size_t j) { return seed + 100000 * j; }

DirtyDataset Corrupt(const Workload& wl, uint64_t seed) {
  ErrorSpec spec;
  spec.error_rate = kErrorRate;
  spec.replacement_ratio = kReplacementRatio;
  spec.seed = seed;
  return Must(InjectErrors(wl.clean, wl.rules, spec), "inject errors");
}

std::vector<DirtyDataset> CorruptTables(const Workload& wl, uint64_t seed, size_t n) {
  std::vector<DirtyDataset> tables;
  for (size_t j = 0; j < n; ++j) tables.push_back(Corrupt(wl, TableSeed(seed, j)));
  return tables;
}

double F1(const Dataset& dirty, const Dataset& cleaned, const GroundTruth& truth) {
  return EvaluateRepair(dirty, cleaned, truth).F1();
}

CleaningOptions Options(size_t tau) {
  CleaningOptions options;
  options.agp_threshold = tau;
  options.num_threads = 1;
  return options;
}

bool SameOutput(const CleanResult& a, const CleanResult& b) {
  return a.cleaned == b.cleaned && a.deduped == b.deduped;
}

// ------------------------------------------------------------ batch clean

struct BatchFixture {
  Workload wl;
  std::vector<DirtyDataset> tables;
};

/// hai_batch / car_batch: a closed loop of cold CleaningEngine::Clean
/// calls, one at a time, report on, cycling over the run's tables.
RunResult RunBatch(bool car, uint64_t seed, double seconds, HostSpeed* host,
                   Tracer* tracer) {
  RunResult r;
  const CleaningOptions options = Options(car ? 2 : 3);
  const size_t num_tables = car ? kCarBatchTables : kHaiBatchTables;
  SetupTimer<BatchFixture> setup(
      [&] {
        Workload wl = car ? CarWorkload() : HaiWorkload(40);
        std::vector<DirtyDataset> tables = CorruptTables(wl, seed, num_tables);
        return BatchFixture{std::move(wl), std::move(tables)};
      },
      host, &r);
  const BatchFixture fx = setup.Build();
  const CleaningEngine engine(options);
  r.scaled_ms.resize(num_tables);

  int64_t request = 0;
  auto clean = [&](const Dataset& dirty, bool traced) -> Result<CleanResult> {
    if (!traced) return engine.Clean(dirty, fx.wl.rules);
    const uint64_t root = tracer->NewId();
    const TimePoint start = Clock::now();
    const uint64_t compile_id = tracer->NewId();
    MLN_ASSIGN_OR_RETURN(CleanModel model, engine.Compile(dirty.schema(), fx.wl.rules));
    const TimePoint compiled = Clock::now();
    tracer->Span(compile_id, "engine.compile", root, request, start, compiled);
    const uint64_t session_id = tracer->NewId();
    CleanSession session = model.NewSession(dirty);
    MLN_RETURN_NOT_OK(StepStages(&session, tracer, session_id, request));
    MLN_ASSIGN_OR_RETURN(CleanResult result, session.TakeResult());
    const TimePoint end = Clock::now();
    tracer->Span(session_id, "session", root, request, compiled, end);
    tracer->Span(root, "request", 0, request, start, end);
    return result;
  };

  // The first clean of each table, made before warm-up, is its reference:
  // every timed clean of that table must return identical output.
  std::vector<CleanResult> references;
  for (const DirtyDataset& table : fx.tables) {
    CleanResult reference = Must(clean(table.dirty, false), "reference clean");
    reference.report = CleaningReport();
    references.push_back(std::move(reference));
  }
  const TimePoint warm_end = After(kWarmupSeconds);
  for (size_t i = 0; Clock::now() < warm_end; ++i) {
    Must(clean(fx.tables[i % num_tables].dirty, false), "warm-up clean");
  }

  TimeWindows<BatchFixture>(seconds, &setup, host, &r, [&](size_t i) {
    const size_t t = i % num_tables;
    const Dataset& dirty = fx.tables[t].dirty;
    const bool traced = Traced(*tracer, i, num_tables);
    request = static_cast<int64_t>(i);
    const TimePoint start = Clock::now();
    Result<CleanResult> result = clean(dirty, traced);
    const double ms = Ms(Clock::now() - start);
    ++r.attempted;
    if (!result.ok()) {
      ++r.failed;
      return;
    }
    r.Timed(t, ms, dirty.num_rows(), traced);
    // Checked after the clock stopped; a mismatch fails the clean.
    r.CheckOutput(SameOutput(*result, references[t]));
  });
  r.peak_rss_mb = PeakRssMb();

  std::vector<double> f1s;
  for (size_t t = 0; t < num_tables; ++t) {
    f1s.push_back(F1(fx.tables[t].dirty, references[t].cleaned, fx.tables[t].truth));
  }
  r.f1 = Mean(f1s);
  r.f1_first = f1s.front();

  if (tracer->on()) {
    WorkCounts counts;
    const CleanModel model =
        Must(engine.Compile(fx.wl.clean.schema(), fx.wl.rules), "compile");
    for (const DirtyDataset& table : fx.tables) CountWork(model, table.dirty, {}, &counts);
    counts.Record(tracer);
    RecordCompileTime(fx.wl.clean.schema(), fx.wl.rules, options, tracer);
  }
  return r;
}

// ---------------------------------------------------------------- serving

std::vector<Dataset> CutBatches(const Dataset& data) {
  std::vector<Dataset> batches;
  for (size_t begin = 0; begin < data.num_rows(); begin += kBatchRows) {
    batches.push_back(data.Slice(begin, std::min(data.num_rows(), begin + kBatchRows)));
  }
  return batches;
}

/// Row-wise concatenation of row-aligned batch outputs.
Dataset Concat(const std::vector<Dataset>& parts) {
  Dataset out = Dataset::EmptyLike(parts.front());
  for (const Dataset& part : parts) {
    for (size_t t = 0; t < part.num_rows(); ++t) {
      Check(out.Append(part.row(static_cast<TupleId>(t))), "concat");
    }
  }
  return out;
}

/// Progress timestamps of one served session: the first and last event of
/// each stage.
struct Marks {
  std::array<TimePoint, kNumStages> first{};
  std::array<TimePoint, kNumStages> last{};
};

struct ServeFixture {
  Workload wl;
  std::vector<DirtyDataset> tables;
  // Every table's batches, table by table.
  std::vector<Dataset> batches;
  std::optional<CleanModel> model;
  std::optional<CleanServer> server;
};

SessionOptions ServeOptions() {
  SessionOptions opts;
  opts.reuse_model_weights = true;
  opts.collect_report = false;
  return opts;
}

Result<CleanResult> Serve(CleanServer& server, const Dataset& batch, SessionOptions opts) {
  MLN_ASSIGN_OR_RETURN(CleanTicket ticket, server.Submit(batch, std::move(opts)));
  return ticket.Take();
}

/// Spans of one traced served request: Submit to the end of Take, the
/// session inside it from its first to its last progress event, and each
/// stage from its first to its last event.
void RecordServed(const Marks& marks, TimePoint start, TimePoint end, int64_t id,
                  Tracer* tracer) {
  const uint64_t root = tracer->NewId();
  const uint64_t session = tracer->NewId();
  for (int s = 0; s < kNumStages; ++s) {
    tracer->Span(tracer->NewId(), kStageSpan[s], session, id, marks.first[s],
                 marks.last[s]);
  }
  tracer->Span(session, "session", root, id, marks.first[0], marks.last[kNumStages - 1]);
  tracer->Span(root, "server.request", 0, id, start, end);
}

/// hai_serve: the run's HAI-120 tables in batches of 50 rows, served one at
/// a time by a CleanServer on the calling thread over a saved-and-reloaded
/// warm model.
RunResult RunServe(uint64_t seed, double seconds, HostSpeed* host, Tracer* tracer) {
  RunResult r;
  SetupTimer<ServeFixture> setup(
      [&] {
        ServeFixture f{HaiWorkload(120), {}, {}, {}, {}};
        f.tables = CorruptTables(f.wl, seed, kServeTables);
        for (const DirtyDataset& table : f.tables) {
          for (Dataset& batch : CutBatches(table.dirty)) {
            f.batches.push_back(std::move(batch));
          }
        }
        // Warm on a further copy, then ship the model through a snapshot
        // the way a serving process loads it.
        const DirtyDataset warm_copy = Corrupt(f.wl, TableSeed(seed, kServeTables));
        CleanModel built = Must(
            CleaningEngine(Options(3)).Compile(f.wl.clean.schema(), f.wl.rules),
            "compile");
        Check(built.Warm(warm_copy.dirty), "warm");
        std::stringstream snapshot;
        Check(built.Save(snapshot), "save");
        f.model.emplace(Must(CleaningEngine().Load(snapshot), "load"));
        ServerOptions sopts;
        sopts.executor = SequentialExecutor();
        f.server.emplace(Must(CleanServer::Create(*f.model, sopts), "server"));
        return f;
      },
      host, &r);
  ServeFixture fx = setup.Build();
  const size_t num_batches = fx.batches.size();
  r.scaled_ms.resize(num_batches);

  // References for the output checks: each batch cleaned once by the model
  // directly. They are neither set-up nor timed.
  std::vector<CleanResult> references;
  for (const Dataset& batch : fx.batches) {
    references.push_back(Must(fx.model->Clean(batch, ServeOptions()), "reference"));
  }

  const TimePoint warm_end = After(kWarmupSeconds);
  for (size_t i = 0; Clock::now() < warm_end; ++i) {
    Must(Serve(*fx.server, fx.batches[i % num_batches], ServeOptions()), "warm-up");
  }

  TimeWindows<ServeFixture>(seconds, &setup, host, &r, [&](size_t i) {
    const size_t b = i % num_batches;
    const bool traced = Traced(*tracer, i, num_batches);
    SessionOptions opts = ServeOptions();
    Marks marks;
    if (traced) {
      opts.progress = [&marks](const StageProgress& event) {
        const TimePoint now = Clock::now();
        const auto s = static_cast<size_t>(event.stage);
        if (marks.first[s] == TimePoint{}) marks.first[s] = now;
        marks.last[s] = now;
      };
    }
    const TimePoint start = Clock::now();
    Result<CleanResult> result = Serve(*fx.server, fx.batches[b], std::move(opts));
    const TimePoint end = Clock::now();
    ++r.attempted;
    if (traced) RecordServed(marks, start, end, static_cast<int64_t>(i), tracer);
    if (!result.ok()) {
      ++r.failed;
      return;
    }
    r.Timed(b, Ms(end - start), fx.batches[b].num_rows(), traced);
    r.CheckOutput(SameOutput(*result, references[b]));
  });
  r.peak_rss_mb = PeakRssMb();

  // Batches are cut from the tables in order, so table t owns a contiguous
  // run of them.
  std::vector<double> f1s;
  const size_t per_table = num_batches / fx.tables.size();
  for (size_t t = 0; t < fx.tables.size(); ++t) {
    std::vector<Dataset> cleaned;
    for (size_t b = t * per_table; b < (t + 1) * per_table; ++b) {
      cleaned.push_back(references[b].cleaned);
    }
    f1s.push_back(F1(fx.tables[t].dirty, Concat(cleaned), fx.tables[t].truth));
  }
  r.f1 = Mean(f1s);
  r.f1_first = f1s.front();

  if (tracer->on()) {
    WorkCounts counts;
    for (const Dataset& batch : fx.batches) {
      CountWork(*fx.model, batch, ServeOptions(), &counts);
    }
    counts.Record(tracer);
    RecordCompileTime(fx.wl.clean.schema(), fx.wl.rules, Options(3), tracer);
  }
  return r;
}

// ------------------------------------------------------------------- main

struct Args {
  std::string workload;
  uint64_t seed = 42;
  double seconds = 30.0;
  std::string trace_path;
};

[[noreturn]] void Usage() {
  Die("usage: mlnclean_e2e --workload <hai_batch|car_batch|hai_serve> [--seed N] "
      "[--seconds S] [--trace FILE]");
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage();
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace_path = value;
    } else {
      Usage();
    }
  }
  if (args.workload != "hai_batch" && args.workload != "car_batch" &&
      args.workload != "hai_serve") {
    Usage();
  }
  if (!(args.seconds > 0.0)) Usage();
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  HostSpeed host;
  Tracer tracer(!args.trace_path.empty());
  const RunResult r =
      args.workload == "hai_serve"
          ? RunServe(args.seed, args.seconds, &host, &tracer)
          : RunBatch(args.workload == "car_batch", args.seed, args.seconds, &host, &tracer);
  if (tracer.on()) {
    tracer.Write(args.trace_path, args.workload, args.seed, r.traced_ms, r.untraced_ms);
  }

  // An input that was never timed (every request for it failed) is left
  // out of latency_ms and shows as min_repeats 0.
  std::vector<double> per_input;
  size_t min_repeats = r.scaled_ms.front().size();
  for (const std::vector<double>& ms : r.scaled_ms) {
    min_repeats = std::min(min_repeats, ms.size());
    if (!ms.empty()) per_input.push_back(Median(ms));
  }
  double total_ms = 0.0;
  for (const double ms : r.latency_ms) total_ms += ms;
  const double attempted = static_cast<double>(std::max<size_t>(r.attempted, 1));
  std::ostringstream out;
  out << "{\"workload\": \"" << args.workload << "\", \"seed\": " << args.seed
      << ", \"seconds\": " << Num(args.seconds)
      << ", \"traced\": " << (tracer.on() ? "true" : "false") << ", \"nproc\": " << Nproc()
      << ", \"build_type\": \"" << MLNCLEAN_E2E_BUILD_TYPE << "\", \"compiler\": \""
      << MLNCLEAN_E2E_COMPILER << "\", \"attempted\": " << r.attempted
      << ", \"failed\": " << r.failed << ", \"checks\": " << r.checks
      << ", \"mismatches\": " << r.mismatches << ", \"metrics\": {"
      << "\"setup_s\": " << Num(Median(r.setup_s))
      << ", \"latency_ms\": " << Num(Mean(per_input))
      << ", \"peak_rss_mb\": " << Num(r.peak_rss_mb)
      << ", \"latency_p50_ms\": " << Num(Percentile(r.latency_ms, 0.50))
      << ", \"latency_p90_ms\": " << Num(Percentile(r.latency_ms, 0.90))
      << ", \"latency_p99_ms\": " << Num(Percentile(r.latency_ms, 0.99))
      << ", \"rows_per_s\": " << Num(total_ms > 0.0 ? r.rows / (total_ms / 1e3) : 0.0)
      << ", \"failed_frac\": " << Num(static_cast<double>(r.failed) / attempted)
      << ", \"f1\": " << Num(r.f1) << ", \"f1_first\": " << Num(r.f1_first)
      << ", \"reference_ms\": " << Num(Median(r.reference_ms))
      << "}, \"samples\": {\"requests\": " << r.latency_ms.size()
      << ", \"inputs\": " << r.scaled_ms.size() << ", \"min_repeats\": " << min_repeats
      << ", \"setup\": " << r.setup_s.size() << ", \"reference\": " << r.reference_ms.size()
      << "}}";
  std::printf("%s\n", out.str().c_str());
  return 0;
}

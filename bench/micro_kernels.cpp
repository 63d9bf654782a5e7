// Micro-benchmarks (google-benchmark) of the kernels the experiments
// spend their time in: string distances, grounding, index construction,
// weight learning, the stage-I cleaners, fusion, and partitioning.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <optional>
#include <sstream>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "cleaning/agp.h"
#include "cleaning/dedup.h"
#include "cleaning/rsc.h"

using namespace mlnclean;
using namespace mlnclean::bench;

namespace {

const Workload& SharedHai() {
  static const Workload wl = [] {
    HospitalConfig config;
    config.num_hospitals = 40;
    config.num_measures = 10;
    return *MakeHospitalWorkload(config);
  }();
  return wl;
}

const DirtyDataset& SharedDirty() {
  static const DirtyDataset dd = Corrupt(SharedHai());
  return dd;
}

// The e2e car_batch input: CAR with 3,000 rows, table 0 at seed 42,
// cleaned with tau = 2.
const Workload& SharedCar() {
  static const Workload wl = [] {
    CarConfig config;
    config.num_rows = 3000;
    return *MakeCarWorkload(config);
  }();
  return wl;
}

const DirtyDataset& SharedCarDirty() {
  static const DirtyDataset dd = Corrupt(SharedCar());
  return dd;
}

CleaningOptions CarOptions() {
  CleaningOptions options;
  options.agp_threshold = 2;
  options.num_threads = 1;
  return options;
}

void BM_Levenshtein(benchmark::State& state) {
  std::string a = "3341000325", b = "3341000052";
  for (auto _ : state) {
    benchmark::DoNotOptimize(Levenshtein(a, b));
  }
}
BENCHMARK(BM_Levenshtein);

void BM_LevenshteinScratch(benchmark::State& state) {
  std::string a = "3341000325", b = "3341000052";
  EditDistanceScratch scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(Levenshtein(a, b, &scratch));
  }
}
BENCHMARK(BM_LevenshteinScratch);

void BM_DamerauScratch(benchmark::State& state) {
  std::string a = "3341000325", b = "3341000052";
  EditDistanceScratch scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(DamerauLevenshtein(a, b, &scratch));
  }
}
BENCHMARK(BM_DamerauScratch);

// Long-value distance: 128-char strings with scattered edits. This is
// where the bit-parallel kernel earns its keep — the classic DP is
// O(n*m) cell updates while Myers does 64 columns per word op.
void BM_LevenshteinLong(benchmark::State& state) {
  std::string a, b;
  for (int i = 0; i < 128; ++i) {
    a.push_back(static_cast<char>('a' + (i * 7) % 26));
    b.push_back(static_cast<char>('a' + (i * 7 + (i % 17 == 0 ? 3 : 0)) % 26));
  }
  EditDistanceScratch scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(Levenshtein(a, b, &scratch));
  }
}
BENCHMARK(BM_LevenshteinLong);

void BM_CosineBigram(benchmark::State& state) {
  std::string a = "MRSA BACTEREMIA", b = "MRSA BACTEREMA";
  for (auto _ : state) {
    benchmark::DoNotOptimize(CosineBigramDistance(a, b));
  }
}
BENCHMARK(BM_CosineBigram);

void BM_CosineProfilePrebuilt(benchmark::State& state) {
  // Profile construction amortized away: the steady-state cost of
  // comparing two distinct values that AGP/RSC see over and over.
  BigramProfile a("MRSA BACTEREMIA"), b("MRSA BACTEREMA");
  for (auto _ : state) {
    benchmark::DoNotOptimize(CosineProfileDistance(a, b));
  }
}
BENCHMARK(BM_CosineProfilePrebuilt);

// Stage-I cleaners on the 40-hospital workload, pinned to 1 thread
// (block parallelism shows up in BM_StageOne/threads below).
CleaningOptions StageOneOptions() {
  CleaningOptions options = Options(SharedHai());
  options.num_threads = 1;
  return options;
}

// The stage benchmarks below time only the stage call: AGP and RSC mutate
// the index, so each iteration assigns a fresh copy over one long-lived
// index while timing is paused, and the previous copy is released there
// too, not inside the timed region.
void BM_AgpAll(benchmark::State& state) {
  const DirtyDataset& dd = SharedDirty();
  const Workload& wl = SharedHai();
  CleaningOptions options = StageOneOptions();
  MlnIndex base = *MlnIndex::Build(dd.dirty, wl.rules);
  MlnIndex index = base;
  for (auto _ : state) {
    state.PauseTiming();
    index = base;
    state.ResumeTiming();
    RunAgpAll(&index, dd.dirty, wl.rules, options, nullptr);
    benchmark::DoNotOptimize(index);
  }
}
// The lone Arg(0) keeps the name BM_AgpAll/0 that BENCH_micro.json gates.
BENCHMARK(BM_AgpAll)->Arg(0);

// AGP on sparse data (the e2e car_batch input). One block holds hundreds
// of abnormal and normal groups.
void BM_AgpCar(benchmark::State& state) {
  const Workload& wl = SharedCar();
  const DirtyDataset& dd = SharedCarDirty();
  CleaningOptions options = CarOptions();
  MlnIndex base = *MlnIndex::Build(dd.dirty, wl.rules);
  MlnIndex index = base;
  for (auto _ : state) {
    state.PauseTiming();
    index = base;
    state.ResumeTiming();
    RunAgpAll(&index, dd.dirty, wl.rules, options, nullptr);
    benchmark::DoNotOptimize(index);
  }
}
BENCHMARK(BM_AgpCar)->Unit(benchmark::kMillisecond);

void BM_RscAll(benchmark::State& state) {
  const DirtyDataset& dd = SharedDirty();
  const Workload& wl = SharedHai();
  CleaningOptions options = StageOneOptions();
  DistanceFn dist = MakeNormalizedDistanceFn(options.distance);
  MlnIndex base = *MlnIndex::Build(dd.dirty, wl.rules);
  RunAgpAll(&base, dd.dirty, wl.rules, options, nullptr);
  base.LearnWeights();
  MlnIndex index = base;
  for (auto _ : state) {
    state.PauseTiming();
    index = base;
    state.ResumeTiming();
    RunRscAll(&index, dd.dirty, wl.rules, dist, nullptr);
    benchmark::DoNotOptimize(index);
  }
}
// The lone Arg(0) keeps the name BM_RscAll/0 that BENCH_micro.json gates.
BENCHMARK(BM_RscAll)->Arg(0);

// RSC on the e2e car_batch input after AGP and learning; Arg = report off
// (0) or on (1), so the cost of building the replacement records shows.
// The index copy and the old report are released untimed.
void BM_RscCar(benchmark::State& state) {
  const Workload& wl = SharedCar();
  CleaningOptions options = CarOptions();
  DistanceFn dist = MakeNormalizedDistanceFn(options.distance);
  const Dataset& dirty = SharedCarDirty().dirty;
  MlnIndex base = *MlnIndex::Build(dirty, wl.rules);
  RunAgpAll(&base, dirty, wl.rules, options, nullptr);
  base.LearnWeights();
  const bool collect = state.range(0) != 0;
  MlnIndex index = base;
  CleaningReport report;
  for (auto _ : state) {
    state.PauseTiming();
    index = base;
    report = CleaningReport();
    state.ResumeTiming();
    RunRscAll(&index, dirty, wl.rules, dist, collect ? &report : nullptr);
    benchmark::DoNotOptimize(index);
  }
}
BENCHMARK(BM_RscCar)->Arg(0)->Arg(1);

// Duplicate elimination on the fused (pre-dedup) e2e car_batch table,
// with the (removed, kept) pairs collected as a session does.
void BM_DedupCar(benchmark::State& state) {
  const Workload& wl = SharedCar();
  static const Dataset fused =
      CleaningEngine(CarOptions()).Clean(SharedCarDirty().dirty, wl.rules)->cleaned;
  std::vector<std::pair<TupleId, TupleId>> removed;
  for (auto _ : state) {
    removed.clear();
    benchmark::DoNotOptimize(RemoveDuplicates(fused, &removed));
  }
}
BENCHMARK(BM_DedupCar);

void BM_GroundConstraint(benchmark::State& state) {
  const Workload& wl = SharedHai();
  for (auto _ : state) {
    benchmark::DoNotOptimize(GroundConstraint(wl.clean, wl.rules.rule(0)));
  }
}
BENCHMARK(BM_GroundConstraint);

// Grounding every rule of the workload over the dirty data: the per-tuple
// half of index construction (ROADMAP's ~430 µs grounding hot spot). The
// id-tuple rewrite is on trial here — bindings dedup on dictionary ids
// with no per-tuple key strings.
void BM_Grounding(benchmark::State& state) {
  const DirtyDataset& dd = SharedDirty();
  const Workload& wl = SharedHai();
  for (auto _ : state) {
    for (size_t ri = 0; ri < wl.rules.size(); ++ri) {
      benchmark::DoNotOptimize(GroundConstraint(dd.dirty, wl.rules.rule(ri)));
    }
  }
}
BENCHMARK(BM_Grounding);

void BM_IndexBuild(benchmark::State& state) {
  const DirtyDataset& dd = SharedDirty();
  const Workload& wl = SharedHai();
  for (auto _ : state) {
    benchmark::DoNotOptimize(MlnIndex::Build(dd.dirty, wl.rules));
  }
}
BENCHMARK(BM_IndexBuild);

// Row-incremental append (the index half of CleanSession::AppendRows): a
// base index over all-but-50 rows, copied — the session copies base to
// owned on every Resume, so the copy is part of the honest per-batch cost
// — then extended with the last 50 rows. Compare against BM_IndexBuild,
// the cold re-index a non-incremental session pays per batch; the delta
// is the streaming win docs/perf.md records.
void BM_IncrementalAppend(benchmark::State& state) {
  const DirtyDataset& dd = SharedDirty();
  const Workload& wl = SharedHai();
  const size_t base_rows = dd.dirty.num_rows() - 50;
  Dataset prefix = dd.dirty.Slice(0, base_rows);
  MlnIndex base = *MlnIndex::Build(prefix, wl.rules);
  for (auto _ : state) {
    MlnIndex index = base;
    benchmark::DoNotOptimize(index.AppendRows(dd.dirty, wl.rules, base_rows));
    benchmark::DoNotOptimize(index);
  }
}
BENCHMARK(BM_IncrementalAppend);

void BM_WeightLearning(benchmark::State& state) {
  const DirtyDataset& dd = SharedDirty();
  const Workload& wl = SharedHai();
  MlnIndex index = *MlnIndex::Build(dd.dirty, wl.rules);
  for (auto _ : state) {
    index.LearnWeights();
  }
}
BENCHMARK(BM_WeightLearning);

// Full rule discovery (lattice + MD mining + MLN scoring) on the shared
// 40-hospital dirty table — the `mlnclean_model discover` hot path.
void BM_DiscoverRules(benchmark::State& state) {
  const DirtyDataset& dd = SharedDirty();
  for (auto _ : state) {
    benchmark::DoNotOptimize(DiscoverRules(dd.dirty));
  }
}
BENCHMARK(BM_DiscoverRules);

// Arg = worker threads (default cache setting): the end-to-end stage-I
// trajectory tracked against the sequential seed. Compile rides inside
// the loop (the cost profile of the old one-shot facade this benchmark
// has always measured).
void BM_StageOne(benchmark::State& state) {
  const DirtyDataset& dd = SharedDirty();
  const Workload& wl = SharedHai();
  CleaningOptions options = Options(wl);
  options.num_threads = static_cast<size_t>(state.range(0));
  CleaningEngine engine(options);
  for (auto _ : state) {
    CleanModel model = *engine.Compile(wl.clean.schema(), wl.rules);
    SessionOptions sopts;
    sopts.collect_report = false;
    CleanSession session = model.NewSession(dd.dirty, std::move(sopts));
    benchmark::DoNotOptimize(session.RunUntil(Stage::kRsc));
  }
}
BENCHMARK(BM_StageOne)->Arg(1)->Arg(8);

void BM_FullPipeline(benchmark::State& state) {
  const DirtyDataset& dd = SharedDirty();
  const Workload& wl = SharedHai();
  CleaningOptions options = Options(wl);
  options.num_threads = static_cast<size_t>(state.range(0));
  CleaningEngine engine(options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.Clean(dd.dirty, wl.rules));
  }
}
BENCHMARK(BM_FullPipeline)->Arg(1)->Arg(8);

// FSCR alone, with stage I run outside the timed region: Arg = rows, the
// whole 400-row table or its first 50-row batch (the size a server
// batch has). BM_FullPipeline has no stage attribution, so an FSCR change
// shows here by itself.
void BM_Fscr(benchmark::State& state) {
  const Workload& wl = SharedHai();
  const Dataset& dirty = SharedDirty().dirty;
  const Dataset data =
      dirty.Slice(0, std::min(dirty.num_rows(), static_cast<size_t>(state.range(0))));
  CleaningOptions options = Options(wl);
  options.num_threads = 1;
  const CleanModel model = *CleaningEngine(options).Compile(wl.clean.schema(), wl.rules);
  std::optional<CleanSession> session;
  for (auto _ : state) {
    state.PauseTiming();
    session.emplace(model.NewSession(data));  // the old session dies untimed
    if (!session->RunUntil(Stage::kRsc).ok()) {
      state.SkipWithError("stage I failed");
      return;
    }
    state.ResumeTiming();
    benchmark::DoNotOptimize(session->RunUntil(Stage::kFscr));
  }
}
BENCHMARK(BM_Fscr)->Arg(400)->Arg(50);

// Serving amortization (the CleaningEngine contract): K micro-batches
// cleaned against one prepared model — compiled once, Eq. 6 weight store
// warmed on the first batch, per-batch sessions reusing the stored
// weights instead of running Newton — vs K cold one-shot
// CleaningEngine::Clean runs. Everything else (trace collection, thread
// count) is identical, so the delta is the amortized compile+learn cost.
// Arg 0 = cold, Arg 1 = prepared model.
const std::vector<Dataset>& ServeBatches() {
  static const std::vector<Dataset> batches = [] {
    const Dataset& dirty = SharedDirty().dirty;
    const size_t k = 8;
    const size_t chunk = (dirty.num_rows() + k - 1) / k;
    std::vector<Dataset> out;
    for (size_t begin = 0; begin < dirty.num_rows(); begin += chunk) {
      out.push_back(dirty.Slice(begin, begin + chunk));
    }
    return out;
  }();
  return batches;
}

void BM_ServeBatch(benchmark::State& state) {
  const Workload& wl = SharedHai();
  const std::vector<Dataset>& batches = ServeBatches();
  CleaningOptions options = Options(wl);
  if (state.range(0) != 0) {
    CleanModel model =
        *CleaningEngine(options).Compile(wl.clean.schema(), wl.rules);
    if (!model.Warm(batches.front()).ok()) {
      state.SkipWithError("warmup failed");
      return;
    }
    SessionOptions serve;
    serve.reuse_model_weights = true;
    for (auto _ : state) {
      for (const Dataset& batch : batches) {
        benchmark::DoNotOptimize(model.Clean(batch, serve));
      }
    }
  } else {
    CleaningEngine cleaner(options);
    for (auto _ : state) {
      for (const Dataset& batch : batches) {
        benchmark::DoNotOptimize(cleaner.Clean(batch, wl.rules));
      }
    }
  }
}
BENCHMARK(BM_ServeBatch)->Arg(0)->Arg(1);

// Concurrent serving: the 8 micro-batches submitted asynchronously to a
// CleanServer scheduling sessions on the shared process executor, then
// harvested in submit order — the multi-session throughput the serving
// layer exists for (vs BM_ServeBatch's one-session-at-a-time loop).
void BM_ServerThroughput(benchmark::State& state) {
  const Workload& wl = SharedHai();
  const std::vector<Dataset>& batches = ServeBatches();
  CleaningOptions options = Options(wl);
  CleanModel model = *CleaningEngine(options).Compile(wl.clean.schema(), wl.rules);
  ServerOptions sopts;
  sopts.executor = ProcessExecutor();
  sopts.max_concurrent_sessions = 4;
  sopts.queue_capacity = 2 * batches.size();
  CleanServer server = *CleanServer::Create(model, sopts);
  for (auto _ : state) {
    std::vector<CleanTicket> tickets;
    tickets.reserve(batches.size());
    for (const Dataset& batch : batches) {
      tickets.push_back(*server.Submit(batch));
    }
    for (CleanTicket& ticket : tickets) {
      benchmark::DoNotOptimize(ticket.Take());
    }
  }
}
BENCHMARK(BM_ServerThroughput);

// Fleet saturation: N client threads each firing the 8 micro-batches at a
// CleanFleet of M shards and harvesting their own tickets, on one shared
// pool. Args are {clients, shards}. Beyond wall time, the run reports the
// fleet's submit-to-harvest latency percentiles (p50_ms / p99_ms counters
// from FleetStats).
void BM_FleetSaturation(benchmark::State& state) {
  const size_t clients = static_cast<size_t>(state.range(0));
  const size_t shards = static_cast<size_t>(state.range(1));
  const Workload& wl = SharedHai();
  const DirtyDataset& dd = SharedDirty();
  const std::vector<Dataset>& batches = ServeBatches();
  CleaningOptions options = Options(wl);
  CleanModel model = *CleaningEngine(options).Compile(wl.clean.schema(), wl.rules);
  ShardRouterOptions ropts;
  ropts.num_shards = shards;
  ShardRouter router = *ShardRouter::Build(dd.dirty, ropts);
  FleetOptions fopts;
  fopts.executor = ProcessExecutor();
  fopts.max_concurrent_sessions = 4;
  fopts.queue_capacity = 2 * clients * batches.size();
  CleanFleet fleet = *CleanFleet::Create(model, std::move(router), fopts);
  for (auto _ : state) {
    std::vector<std::thread> workers;
    workers.reserve(clients);
    for (size_t c = 0; c < clients; ++c) {
      workers.emplace_back([&fleet, &batches] {
        std::vector<FleetTicket> tickets;
        tickets.reserve(batches.size());
        for (const Dataset& batch : batches) {
          tickets.push_back(*fleet.Submit(batch));
        }
        for (FleetTicket& ticket : tickets) {
          benchmark::DoNotOptimize(ticket.Take());
        }
      });
    }
    for (std::thread& worker : workers) worker.join();
  }
  const FleetStats stats = fleet.Stats();
  state.counters["p50_ms"] = stats.latency.p50 * 1e3;
  state.counters["p99_ms"] = stats.latency.p99 * 1e3;
}
BENCHMARK(BM_FleetSaturation)->Args({4, 2})->Args({8, 3})
    ->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_Partition(benchmark::State& state) {
  const DirtyDataset& dd = SharedDirty();
  PartitionOptions opts;
  opts.num_parts = 8;
  for (auto _ : state) {
    benchmark::DoNotOptimize(PartitionDataset(dd.dirty, opts));
  }
}
BENCHMARK(BM_Partition);

// Snapshot save + load of the warmed 40-hospital model: the v4 columnar
// varint codec on its motivating payload (the Eq. 6 weight store).
void BM_SnapshotCodec(benchmark::State& state) {
  const DirtyDataset& dd = SharedDirty();
  const Workload& wl = SharedHai();
  CleaningOptions options = Options(wl);
  CleaningEngine engine(options);
  CleanModel model = *engine.Compile(wl.clean.schema(), wl.rules);
  if (!model.Warm(dd.dirty).ok()) {
    state.SkipWithError("warmup failed");
    return;
  }
  size_t bytes = 0;
  for (auto _ : state) {
    std::ostringstream out;
    if (!model.Save(out).ok()) {
      state.SkipWithError("save failed");
      return;
    }
    std::string blob = out.str();
    bytes = blob.size();
    std::istringstream in(blob);
    benchmark::DoNotOptimize(engine.Load(in));
  }
  state.counters["snapshot_bytes"] =
      benchmark::Counter(static_cast<double>(bytes));
}
BENCHMARK(BM_SnapshotCodec);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  // Debian's libbenchmark package is compiled without NDEBUG, so the
  // library self-reports `library_build_type: "debug"` regardless of how
  // THIS binary was built. Record the binary's own build type under a
  // separate key so tools/bench_compare.py --require-release can reject
  // accidentally debug-measured baselines without false-failing on the
  // packaged library.
#ifdef NDEBUG
  benchmark::AddCustomContext("mlnclean_build_type", "release");
#else
  benchmark::AddCustomContext("mlnclean_build_type", "debug");
#endif
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

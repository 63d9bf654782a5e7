// mlnclean_model: save / load / inspect / serve CleanModel snapshots from
// the command line — the cross-process half of the serving story and the
// binary CI's snapshot-roundtrip job drives.
//
//   # compile (+warm) a model over the deterministic hospital workload and
//   # snapshot it
//   mlnclean_model save --out model.bin --warm
//
//   # print a snapshot's schema, rules, options, and weight-store summary
//   mlnclean_model inspect model.bin
//
//   # serve the workload's micro-batches through a loaded snapshot ...
//   mlnclean_model serve --model model.bin --batches 8 --reuse --out serve.txt
//
//   # ... concurrently, through a CleanServer on a 4-worker pool; the
//   # transcript stays ordered by batch index and byte-identical to the
//   # sequential run (the concurrent-serving CI gate)
//   mlnclean_model serve --model model.bin --batches 8 --jobs 4 --reuse --out serve.txt
//
//   # ... or sharded through a CleanFleet (router built from the seeded
//   # workload and round-tripped through its wire image before serving);
//   # --shards 1 is byte-identical to the plain serve transcript, and
//   # --stats appends a latency/counter footer (never used by cmp gates)
//   mlnclean_model serve --model model.bin --batches 8 --shards 3 --jobs 4 --out serve.txt
//
//   # ... or through an in-process compile (the reference arm; pass
//   # --warm iff the snapshot was saved with --warm)
//   mlnclean_model serve --compile --warm --batches 8 --reuse --out serve.txt
//
//   # stream the batches through ONE row-incremental session (each entry
//   # covers the accumulated rows), snapshotting the base index mid-stream
//   mlnclean_model serve --compile --incremental --batches 6 --limit 3
//                        --save-index idx.bin --out first.txt
//
//   # ... then resume cross-process from the snapshot and append the rest;
//   # cat first.txt rest.txt equals the cold --cumulative reference
//   mlnclean_model serve --resume-index idx.bin --skip 3 --batches 6 --out rest.txt
//   mlnclean_model serve --compile --cumulative --batches 6 --out cold.txt
//
// The serve output file is fully deterministic (cleaned + deduped CSV and
// the decision-trace counts per batch; no timings), so `cmp` between the
// --model and --compile arms is the round-trip gate: a loaded model must
// serve bit-identically to the in-process original.
//
// The workload is generated, not read from disk: MakeHospitalWorkload +
// InjectErrors are seeded, so two processes given the same flags see the
// same bytes. --data/--rules switch to a CSV file and rule DSL file
// instead.

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "mlnclean/mlnclean.h"

using namespace mlnclean;

namespace {

struct Args {
  std::string command;
  std::string model_path;   // serve --model / inspect positional
  std::string out_path;     // save --out / serve --out
  std::string data_path;    // optional CSV workload
  std::string rules_path;   // optional rule DSL file
  size_t hospitals = 40;
  size_t measures = 10;
  double error_rate = 0.05;
  uint64_t seed = 21;
  size_t batches = 8;
  size_t jobs = 1;  // serve: concurrent sessions via CleanServer when > 1
  size_t shards = 0;  // serve: fan batches across a CleanFleet when > 0
  bool stats = false;  // serve: append the stats footer to the transcript
  size_t agp_threshold = 3;
  bool agp_threshold_set = false;
  bool warm = false;     // save: warm the store on batch 0 before saving
  bool compile = false;  // serve: in-process reference arm
  bool reuse = false;    // serve: reuse_model_weights
  bool incremental = false;  // serve: one row-incremental session
  bool cumulative = false;   // serve: cold prefix runs (the reference arm)
  size_t limit = 0;          // serve: stop after batch `limit` (0 = all)
  size_t skip = 0;           // serve: first batch to emit (resume/cumulative)
  std::string save_index_path;    // serve --incremental: snapshot with index
  std::string resume_index_path;  // serve: resume from a saved index
  std::string failpoint;  // arm this failpoint (Once) before the command
  // discover knobs; defaults mirror DiscoveryOptions.
  size_t threads = 1;
  size_t max_lhs = DiscoveryOptions().max_lhs;
  double min_support = DiscoveryOptions().min_support;
  double min_confidence = DiscoveryOptions().min_confidence;
  bool eval = false;  // discover: clean with mined vs hand-written rules
};

// Strict numeric flag parsing: the whole token must be a non-negative
// decimal number (std::stoul would wrap "-1" to huge and accept "8x").
bool ParseU64Flag(const char* v, uint64_t* out) {
  if (v == nullptr || *v == '\0' || *v == '-' || *v == '+') return false;
  errno = 0;
  char* end = nullptr;
  unsigned long long parsed = std::strtoull(v, &end, 10);
  if (errno != 0 || end == v || *end != '\0') return false;
  *out = parsed;
  return true;
}

bool ParseSizeFlag(const char* v, size_t* out) {
  uint64_t parsed = 0;
  if (!ParseU64Flag(v, &parsed) || parsed > std::numeric_limits<size_t>::max()) {
    return false;
  }
  *out = static_cast<size_t>(parsed);
  return true;
}

bool ParseRateFlag(const char* v, double* out) {
  if (v == nullptr || *v == '\0') return false;
  errno = 0;
  char* end = nullptr;
  double parsed = std::strtod(v, &end);
  // strtod happily parses "nan"/"inf"; a rate must be a finite fraction.
  if (errno != 0 || end == v || *end != '\0' || !std::isfinite(parsed) ||
      parsed < 0.0 || parsed > 1.0) {
    return false;
  }
  *out = parsed;
  return true;
}

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  mlnclean_model save --out FILE [--warm] [workload flags]\n"
               "  mlnclean_model inspect FILE\n"
               "  mlnclean_model serve (--model FILE | --compile [--warm])\n"
               "                       --out FILE [--reuse] [--batches K]\n"
               "                       [--jobs N] [--shards N] [--stats]\n"
               "                       [workload flags]\n"
               "                       [--incremental [--save-index FILE]]\n"
               "                       [--cumulative] [--limit K] [--skip K]\n"
               "  mlnclean_model serve --resume-index FILE --skip K --out FILE\n"
               "                       [--batches K] [--limit K] [workload flags]\n"
               "  mlnclean_model discover --out FILE [--threads N] [--eval]\n"
               "                       [--max-lhs K] [--min-support R]\n"
               "                       [--min-confidence R] [workload flags]\n"
               "workload flags: --hospitals N --measures N --error-rate R --seed S\n"
               "                --agp-threshold T | --data CSV --rules FILE\n"
               "fault injection (fault builds only): --failpoint SITE arms SITE\n"
               "                to fire once before the command runs\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  if (argc < 2) return false;
  args->command = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string flag = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (flag == "--warm") {
      args->warm = true;
    } else if (flag == "--compile") {
      args->compile = true;
    } else if (flag == "--reuse") {
      args->reuse = true;
    } else if (flag == "--incremental") {
      args->incremental = true;
    } else if (flag == "--cumulative") {
      args->cumulative = true;
    } else if (flag == "--save-index") {
      const char* v = next();
      if (v == nullptr) return false;
      args->save_index_path = v;
    } else if (flag == "--resume-index") {
      const char* v = next();
      if (v == nullptr) return false;
      args->resume_index_path = v;
    } else if (flag == "--stats") {
      args->stats = true;
    } else if (flag == "--eval") {
      args->eval = true;
    } else if (flag == "--failpoint") {
      const char* v = next();
      if (v == nullptr) return false;
      args->failpoint = v;
    } else if (flag == "--out") {
      const char* v = next();
      if (v == nullptr) return false;
      args->out_path = v;
    } else if (flag == "--model") {
      const char* v = next();
      if (v == nullptr) return false;
      args->model_path = v;
    } else if (flag == "--data") {
      const char* v = next();
      if (v == nullptr) return false;
      args->data_path = v;
    } else if (flag == "--rules") {
      const char* v = next();
      if (v == nullptr) return false;
      args->rules_path = v;
    } else if (flag == "--hospitals" || flag == "--measures" || flag == "--batches" ||
               flag == "--jobs" || flag == "--shards" ||
               flag == "--agp-threshold" || flag == "--seed" ||
               flag == "--error-rate" || flag == "--threads" || flag == "--max-lhs" ||
               flag == "--min-support" || flag == "--min-confidence" ||
               flag == "--limit" || flag == "--skip") {
      const char* v = next();
      if (v == nullptr) return false;
      bool parsed = true;
      if (flag == "--hospitals") parsed = ParseSizeFlag(v, &args->hospitals);
      if (flag == "--measures") parsed = ParseSizeFlag(v, &args->measures);
      if (flag == "--batches") parsed = ParseSizeFlag(v, &args->batches);
      if (flag == "--jobs") parsed = ParseSizeFlag(v, &args->jobs);
      if (flag == "--shards") parsed = ParseSizeFlag(v, &args->shards);
      if (flag == "--agp-threshold") {
        parsed = ParseSizeFlag(v, &args->agp_threshold);
        args->agp_threshold_set = true;
      }
      if (flag == "--seed") parsed = ParseU64Flag(v, &args->seed);
      if (flag == "--error-rate") parsed = ParseRateFlag(v, &args->error_rate);
      if (flag == "--threads") parsed = ParseSizeFlag(v, &args->threads);
      if (flag == "--max-lhs") parsed = ParseSizeFlag(v, &args->max_lhs);
      if (flag == "--min-support") parsed = ParseRateFlag(v, &args->min_support);
      if (flag == "--min-confidence") parsed = ParseRateFlag(v, &args->min_confidence);
      if (flag == "--limit") parsed = ParseSizeFlag(v, &args->limit);
      if (flag == "--skip") parsed = ParseSizeFlag(v, &args->skip);
      if (!parsed) {
        std::fprintf(stderr, "bad value for %s: %s\n", flag.c_str(), v);
        return false;
      }
    } else if (args->command == "inspect" && args->model_path.empty() &&
               flag.rfind("--", 0) != 0) {
      args->model_path = flag;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
      return false;
    }
  }
  if (args->batches == 0) {
    std::fprintf(stderr, "--batches must be at least 1\n");
    return false;
  }
  if (args->jobs == 0) {
    std::fprintf(stderr, "--jobs must be at least 1\n");
    return false;
  }
  if (!args->resume_index_path.empty()) {
    // A resume snapshot carries its own model (and options); a second
    // model source would make it ambiguous which one serves.
    if (args->compile || !args->model_path.empty()) {
      std::fprintf(stderr,
                   "--resume-index carries its own model; drop --model/--compile\n");
      return false;
    }
    args->incremental = true;  // resuming only makes sense incrementally
  }
  if (args->shards > 0 && (args->incremental || args->cumulative)) {
    // The fleet serves plain batch submissions only: an incremental
    // stream is one session by contract, and --cumulative is its cold
    // reference.
    std::fprintf(stderr,
                 "--shards serves plain batches through a CleanFleet; drop "
                 "--incremental/--cumulative/--resume-index\n");
    return false;
  }
  if (args->stats && (args->incremental || args->cumulative)) {
    // The incremental/cumulative arms bypass the server, so there are no
    // queue/latency counters to print.
    std::fprintf(stderr, "--stats needs the server or fleet serve path\n");
    return false;
  }
  if (args->incremental && args->cumulative) {
    std::fprintf(stderr, "--incremental and --cumulative are mutually exclusive\n");
    return false;
  }
  if (!args->save_index_path.empty() && !args->incremental) {
    std::fprintf(stderr, "--save-index requires --incremental\n");
    return false;
  }
  if (args->skip > 0 && args->resume_index_path.empty() && !args->cumulative) {
    // A fresh incremental session that skipped batches would clean a
    // different stream than the one the transcript claims.
    std::fprintf(stderr, "--skip requires --resume-index or --cumulative\n");
    return false;
  }
  if (args->incremental && args->jobs > 1) {
    // A stream appends to one session in order, so there is nothing for
    // a second worker to run.
    std::fprintf(stderr, "--incremental/--resume-index need --jobs 1\n");
    return false;
  }
  if (args->compile && !args->model_path.empty()) {
    // Accepting both and ignoring one would let a miswritten round-trip
    // gate compare two in-process runs and pass without testing the codec.
    std::fprintf(stderr, "--compile and --model are mutually exclusive\n");
    return false;
  }
  if (args->command == "serve" && !args->model_path.empty() &&
      (args->warm || args->agp_threshold_set)) {
    // Compile-time knobs silently ignored against a loaded snapshot (whose
    // options are authoritative) would make a cmp mismatch look like a
    // codec bug; reject loudly instead.
    std::fprintf(stderr,
                 "--warm/--agp-threshold only apply to --compile or save; a "
                 "loaded snapshot's own options are authoritative\n");
    return false;
  }
  if (args->command == "discover" && !args->rules_path.empty()) {
    // Hand-written rules would be silently unused (discovery mines its
    // own); the one place they matter, --eval, regenerates them.
    std::fprintf(stderr, "discover mines its own rules; drop --rules\n");
    return false;
  }
  if (args->command == "discover" && args->eval && !args->data_path.empty()) {
    // --eval scores repairs against ground truth, which only the
    // generated workload has.
    std::fprintf(stderr, "--eval needs the generated workload, not --data\n");
    return false;
  }
  return true;
}

struct ServingWorkload {
  Dataset dirty;
  RuleSet rules;

  ServingWorkload(Dataset dirty_in, RuleSet rules_in)
      : dirty(std::move(dirty_in)), rules(std::move(rules_in)) {}
};

/// The deterministic workload both processes of the round-trip regenerate
/// from flags (or load from --data/--rules).
Result<ServingWorkload> MakeWorkload(const Args& args) {
  if (!args.data_path.empty() || !args.rules_path.empty()) {
    if (args.data_path.empty() || args.rules_path.empty()) {
      return Status::Invalid("--data and --rules must be given together");
    }
    MLN_ASSIGN_OR_RETURN(Dataset data, Dataset::FromCsvFile(args.data_path));
    std::ifstream rf(args.rules_path);
    if (!rf) return Status::IOError("cannot open rules file " + args.rules_path);
    std::stringstream buf;
    buf << rf.rdbuf();
    MLN_ASSIGN_OR_RETURN(RuleSet rules, ParseRules(data.schema(), buf.str()));
    return ServingWorkload(std::move(data), std::move(rules));
  }
  HospitalConfig config;
  config.num_hospitals = args.hospitals;
  config.num_measures = args.measures;
  MLN_ASSIGN_OR_RETURN(Workload wl, MakeHospitalWorkload(config));
  ErrorSpec spec;
  spec.error_rate = args.error_rate;
  spec.seed = args.seed;
  MLN_ASSIGN_OR_RETURN(DirtyDataset dd, InjectErrors(wl.clean, wl.rules, spec));
  return ServingWorkload(std::move(dd.dirty), std::move(wl.rules));
}

Result<CleanModel> CompileAndWarm(const Args& args, const ServingWorkload& wl,
                                  const std::vector<Dataset>& batches) {
  CleaningOptions options;
  options.agp_threshold = args.agp_threshold;
  CleaningEngine engine(options);
  MLN_ASSIGN_OR_RETURN(CleanModel model, engine.Compile(wl.dirty.schema(), wl.rules));
  if (args.warm && !batches.empty()) {
    MLN_RETURN_NOT_OK(model.Warm(batches[0]));
  }
  return model;
}

void WriteBatchTranscript(size_t index, size_t rows, const CleanResult& result,
                          std::ostream& out) {
  const CleaningReport& report = result.report;
  out << "== batch " << index << " rows=" << rows
      << " agp=" << report.agp.size() << " rsc=" << report.rsc.size()
      << " fscr=" << report.fscr.size() << " dups=" << report.duplicates.size()
      << "\n";
  out << "-- cleaned\n" << WriteCsv(result.cleaned.ToCsv());
  out << "-- deduped\n" << WriteCsv(result.deduped.ToCsv());
}

/// The --stats footer: terminal counters and ticket-latency percentiles.
/// Deliberately NOT part of the deterministic transcript (latencies are
/// wall-clock), which is why it only appears behind the flag — the CI cmp
/// legs never pass --stats.
void WriteServerStatsFooter(const ServerStats& stats, std::ostream& out) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "== stats queued=%zu running=%zu submitted=%zu completed=%zu "
                "failed=%zu cancelled=%zu deadline_expired=%zu rejected=%zu\n",
                stats.queued, stats.running, stats.submitted, stats.completed,
                stats.failed, stats.cancelled, stats.deadline_expired,
                stats.rejected);
  out << buf;
  std::snprintf(buf, sizeof(buf),
                "-- latency samples=%zu p50_ms=%.3f p99_ms=%.3f p999_ms=%.3f\n",
                stats.latency.samples, stats.latency.p50 * 1e3,
                stats.latency.p99 * 1e3, stats.latency.p999 * 1e3);
  out << buf;
}

void WriteFleetStatsFooter(const FleetStats& stats, std::ostream& out) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "== fleet stats submitted=%zu completed=%zu failed=%zu "
                "cancelled=%zu deadline_expired=%zu\n",
                stats.submitted, stats.completed, stats.failed, stats.cancelled,
                stats.deadline_expired);
  out << buf;
  std::snprintf(buf, sizeof(buf),
                "-- latency samples=%zu p50_ms=%.3f p99_ms=%.3f p999_ms=%.3f\n",
                stats.latency.samples, stats.latency.p50 * 1e3,
                stats.latency.p99 * 1e3, stats.latency.p999 * 1e3);
  out << buf;
  for (size_t s = 0; s < stats.shards.size(); ++s) {
    const ServerStats& shard = stats.shards[s];
    std::snprintf(buf, sizeof(buf),
                  "-- shard %zu queued=%zu running=%zu submitted=%zu "
                  "completed=%zu failed=%zu p50_ms=%.3f p99_ms=%.3f\n",
                  s, shard.queued, shard.running, shard.submitted,
                  shard.completed, shard.failed, shard.latency.p50 * 1e3,
                  shard.latency.p99 * 1e3);
    out << buf;
  }
}

/// Serves every batch and writes the deterministic transcript: cleaned and
/// deduped CSV plus decision-trace counts per batch, ordered by batch
/// index. No wall-clock times — two runs of the same model over the same
/// batches must be `cmp`-equal. With jobs > 1 the batches run through a
/// CleanServer on a jobs-wide pool; sessions execute concurrently but the
/// tickets are harvested (and the transcript written) in submit order, so
/// the bytes match the sequential run exactly — that equality IS the
/// concurrent-serving gate CI's --jobs leg checks.
Status ServeBatches(const CleanModel& model, const std::vector<Dataset>& batches,
                    bool reuse, size_t jobs, bool stats, std::ostream& out) {
  SessionOptions opts;
  opts.reuse_model_weights = reuse;
  // --stats forces the server path even at --jobs 1: the footer's
  // counters live on the server.
  if (jobs <= 1 && !stats) {
    for (size_t i = 0; i < batches.size(); ++i) {
      CleanSession session = model.NewSession(batches[i], opts);
      MLN_RETURN_NOT_OK(session.Resume());
      MLN_ASSIGN_OR_RETURN(CleanResult result, session.TakeResult());
      WriteBatchTranscript(i, batches[i].num_rows(), result, out);
    }
    return Status::OK();
  }
  PoolExecutor pool(jobs);
  ServerOptions sopts;
  sopts.executor = &pool;
  sopts.max_concurrent_sessions = jobs;
  sopts.queue_capacity = batches.size();
  MLN_ASSIGN_OR_RETURN(CleanServer server, CleanServer::Create(model, sopts));
  std::vector<CleanTicket> tickets;
  tickets.reserve(batches.size());
  for (const Dataset& batch : batches) {
    // Fresh SessionOptions per job: reusing one instance would share its
    // CancelToken, and Cancel() on one ticket would kill every sibling.
    SessionOptions job_opts;
    job_opts.reuse_model_weights = reuse;
    MLN_ASSIGN_OR_RETURN(CleanTicket ticket, server.Submit(batch, job_opts));
    tickets.push_back(std::move(ticket));
  }
  for (size_t i = 0; i < tickets.size(); ++i) {
    MLN_ASSIGN_OR_RETURN(CleanResult result, tickets[i].Take());
    WriteBatchTranscript(i, batches[i].num_rows(), result, out);
  }
  if (stats) WriteServerStatsFooter(server.Stats(), out);
  return Status::OK();
}

/// The fleet arm (`--shards N`): batches fan out across a CleanFleet on a
/// jobs-wide pool. The shard router is built from the workload's dirty
/// table (the seeded draw, so every process builds the same centroids)
/// and then round-tripped through its wire image before serving — the
/// transcript therefore also certifies that a router restored from a
/// snapshot routes exactly like the one that was built. Harvest order is
/// submit order, so the bytes stay deterministic; at --shards 1 they are
/// byte-identical to the plain serve path (the fleet bit-identity
/// contract, which CI cmp-checks cross-process).
Status ServeFleetBatches(const CleanModel& model, const ServingWorkload& wl,
                         const std::vector<Dataset>& batches, const Args& args,
                         std::ostream& out) {
  ShardRouterOptions ropts;
  ropts.num_shards = args.shards;
  MLN_ASSIGN_OR_RETURN(ShardRouter built, ShardRouter::Build(wl.dirty, ropts));
  MLN_ASSIGN_OR_RETURN(ShardRouter router, ShardRouter::Decode(built.Encode()));
  PoolExecutor pool(args.jobs);
  FleetOptions fopts;
  fopts.executor = &pool;
  fopts.max_concurrent_sessions = args.jobs;
  fopts.queue_capacity = batches.size();
  MLN_ASSIGN_OR_RETURN(CleanFleet fleet,
                       CleanFleet::Create(model, std::move(router), fopts));
  std::vector<FleetTicket> tickets;
  tickets.reserve(batches.size());
  for (const Dataset& batch : batches) {
    SessionOptions job_opts;
    job_opts.reuse_model_weights = args.reuse;
    MLN_ASSIGN_OR_RETURN(FleetTicket ticket, fleet.Submit(batch, job_opts));
    tickets.push_back(std::move(ticket));
  }
  for (size_t i = 0; i < tickets.size(); ++i) {
    MLN_ASSIGN_OR_RETURN(CleanResult result, tickets[i].Take());
    WriteBatchTranscript(i, batches[i].num_rows(), result, out);
  }
  if (args.stats) WriteFleetStatsFooter(fleet.Stats(), out);
  return Status::OK();
}

/// The window of batch indices `serve` emits: [--skip, --limit) clamped to
/// the batch count (limit 0 = all).
std::pair<size_t, size_t> BatchWindow(const Args& args, size_t num_batches) {
  const size_t stop =
      args.limit == 0 ? num_batches : std::min(args.limit, num_batches);
  return {std::min(args.skip, stop), stop};
}

/// The incremental arm: one live row-incremental session, each emitted
/// batch's transcript covering the *accumulated* rows so far. A cmp
/// against the --cumulative reference arm is the streaming bit-identity
/// gate: the incremental entry for batch k must equal a cold run over
/// concat(batch 0..k). With --resume-index the session continues from a
/// saved snapshot (model + base index), rebuilding the already-served rows
/// from the regenerated workload; with --save-index the final base index
/// is snapshotted for a later process to resume from.
Status ServeIncrementalBatches(const Args& args, const ServingWorkload& wl,
                               const std::vector<Dataset>& batches,
                               std::ostream& out) {
  SessionOptions opts;
  opts.reuse_model_weights = args.reuse;
  const auto [first, stop] = BatchWindow(args, batches.size());

  std::optional<CleanModel> model;
  std::optional<CleanSession> session;
  if (!args.resume_index_path.empty()) {
    MLN_ASSIGN_OR_RETURN(
        LoadedSnapshot snap,
        CleaningEngine().LoadWithIndexFromFile(args.resume_index_path));
    if (!snap.index.has_value()) {
      return Status::Invalid("--resume-index: " + args.resume_index_path +
                             " carries no saved index (save it with "
                             "serve --incremental --save-index)");
    }
    // Rebuild the accumulated rows the saved index covers: the first
    // --skip batches of the regenerated workload, re-appended in order so
    // the dictionaries reproduce the ids the index carries.
    size_t skip_rows = 0;
    for (size_t i = 0; i < args.skip && i < batches.size(); ++i) {
      skip_rows += batches[i].num_rows();
    }
    if (args.skip > batches.size() || skip_rows != snap.indexed_rows) {
      return Status::Invalid(
          "--skip " + std::to_string(args.skip) + " covers " +
          std::to_string(skip_rows) + " rows but the saved index covers " +
          std::to_string(snap.indexed_rows) +
          "; pass the --skip/--batches/workload flags of the saving run");
    }
    Dataset accumulated(snap.model.schema());
    accumulated.Reserve(skip_rows);
    for (size_t i = 0; i < args.skip; ++i) {
      for (size_t t = 0; t < batches[i].num_rows(); ++t) {
        MLN_RETURN_NOT_OK(accumulated.Append(batches[i].row(static_cast<TupleId>(t))));
      }
    }
    model.emplace(std::move(snap.model));
    session.emplace(model->ResumeIncrementalSession(std::move(accumulated),
                                                    std::move(*snap.index), opts));
  } else {
    Result<CleanModel> loaded =
        args.compile ? CompileAndWarm(args, wl, batches)
                     : CleaningEngine().LoadFromFile(args.model_path);
    MLN_RETURN_NOT_OK(loaded.status());
    model.emplace(std::move(*loaded));
    session.emplace(model->NewIncrementalSession(opts));
  }

  for (size_t i = first; i < stop; ++i) {
    MLN_RETURN_NOT_OK(session->AppendRows(batches[i]));
    MLN_RETURN_NOT_OK(session->Resume());
    CleanResult result;
    result.cleaned = session->cleaned().Clone();
    result.deduped = session->deduped().Clone();
    result.report = session->report();
    WriteBatchTranscript(i, session->data().num_rows(), result, out);
  }
  if (!args.save_index_path.empty()) {
    MLN_RETURN_NOT_OK(model->SaveToFile(args.save_index_path, session->base_index(),
                                        session->data().num_rows()));
  }
  return Status::OK();
}

/// The cold reference arm for the streaming gate: for every emitted batch
/// k, a fresh cold session over the concatenated prefix (batches 0..k).
/// O(K * rows) work where the incremental arm pays O(rows) — the point of
/// the comparison — but bit-identical transcripts.
Status ServeCumulativeBatches(const CleanModel& model, const Args& args,
                              const ServingWorkload& wl,
                              const std::vector<Dataset>& batches,
                              std::ostream& out) {
  SessionOptions opts;
  opts.reuse_model_weights = args.reuse;
  const auto [first, stop] = BatchWindow(args, batches.size());
  size_t end_row = 0;
  for (size_t i = 0; i < first && i < batches.size(); ++i) {
    end_row += batches[i].num_rows();
  }
  for (size_t i = first; i < stop; ++i) {
    end_row += batches[i].num_rows();
    Dataset prefix = wl.dirty.Slice(0, end_row);
    CleanSession session = model.NewSession(prefix, opts);
    MLN_RETURN_NOT_OK(session.Resume());
    MLN_ASSIGN_OR_RETURN(CleanResult result, session.TakeResult());
    WriteBatchTranscript(i, prefix.num_rows(), result, out);
  }
  return Status::OK();
}

int RunSave(const Args& args) {
  if (args.out_path.empty()) return Usage();
  auto wl = MakeWorkload(args);
  if (!wl.ok()) {
    std::fprintf(stderr, "workload: %s\n", wl.status().ToString().c_str());
    return 1;
  }
  std::vector<Dataset> batches = SplitIntoBatches(wl->dirty, args.batches);
  auto model = CompileAndWarm(args, *wl, batches);
  if (!model.ok()) {
    std::fprintf(stderr, "compile: %s\n", model.status().ToString().c_str());
    return 1;
  }
  // Crash-safe write: temp file + fsync + atomic rename, so a failure (or
  // an injected --failpoint crash-sim) never leaves a torn snapshot — or
  // clobbers a previous good one — at --out.
  Status saved = model->SaveToFile(args.out_path);
  if (!saved.ok()) {
    std::fprintf(stderr, "save: %s\n", saved.ToString().c_str());
    return 1;
  }
  std::printf("saved %s: %zu rules, %zu stored weights\n", args.out_path.c_str(),
              model->rules().size(), model->num_stored_weights());
  return 0;
}

int RunInspect(const Args& args) {
  if (args.model_path.empty()) return Usage();
  std::ifstream in(args.model_path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", args.model_path.c_str());
    return 1;
  }
  auto info = InspectModelSnapshot(in);
  if (!info.ok()) {
    std::fprintf(stderr, "inspect: %s\n", info.status().ToString().c_str());
    return 1;
  }
  std::printf("snapshot version %u\n", info->version);
  std::printf("schema (%zu attrs):", info->attr_names.size());
  for (const std::string& name : info->attr_names) std::printf(" %s", name.c_str());
  std::printf("\nrules (%zu):\n", info->rule_texts.size());
  for (size_t i = 0; i < info->rule_texts.size(); ++i) {
    std::printf("  %s (w=%g): %s\n", info->rule_names[i].c_str(),
                info->rule_weights[i], info->rule_texts[i].c_str());
  }
  std::printf(
      "options: agp_threshold=%zu distance=%s learn_weights=%d num_threads=%zu "
      "fscr_minimality_discount=%g\n",
      info->options.agp_threshold, DistanceMetricName(info->options.distance),
      info->options.learn_weights ? 1 : 0, info->options.num_threads,
      info->options.fscr_minimality_discount);
  size_t dict_values = 0;
  for (size_t n : info->weight_dict_sizes) dict_values += n;
  std::printf("weight store: %zu γ entries, %zu dicts (%zu interned values)\n",
              info->num_stored_weights, info->weight_dict_sizes.size(), dict_values);
  if (info->has_index) {
    std::printf("index: %zu rows, %zu γ pieces (incremental resume point)\n",
                info->indexed_rows, info->index_pieces);
  } else {
    std::printf("index: none\n");
  }
  return 0;
}

int RunServe(const Args& args) {
  if (args.out_path.empty() ||
      (args.model_path.empty() && !args.compile && args.resume_index_path.empty())) {
    return Usage();
  }
  auto wl = MakeWorkload(args);
  if (!wl.ok()) {
    std::fprintf(stderr, "workload: %s\n", wl.status().ToString().c_str());
    return 1;
  }
  std::vector<Dataset> batches = SplitIntoBatches(wl->dirty, args.batches);
  if (args.incremental) {
    std::ofstream out(args.out_path, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "cannot open %s for writing\n", args.out_path.c_str());
      return 1;
    }
    Status served = ServeIncrementalBatches(args, *wl, batches, out);
    if (!served.ok()) {
      std::fprintf(stderr, "serve: %s\n", served.ToString().c_str());
      return 1;
    }
    out.close();
    if (out.fail()) {
      std::fprintf(stderr, "serve: write to %s failed\n", args.out_path.c_str());
      return 1;
    }
    const auto [first, stop] = BatchWindow(args, batches.size());
    std::printf("served batches %zu..%zu incrementally -> %s\n", first, stop,
                args.out_path.c_str());
    return 0;
  }
  // The reference arm warms only when asked: pass --warm iff the snapshot
  // under test was saved with --warm, or the two arms serve from different
  // weight stores and the cmp mismatch would falsely implicate the codec.
  Result<CleanModel> model = args.compile
                                 ? CompileAndWarm(args, *wl, batches)
                                 : CleaningEngine().LoadFromFile(args.model_path);
  if (!model.ok()) {
    std::fprintf(stderr, "model: %s\n", model.status().ToString().c_str());
    return 1;
  }
  std::ofstream out(args.out_path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "cannot open %s for writing\n", args.out_path.c_str());
    return 1;
  }
  Status served =
      args.cumulative
          ? ServeCumulativeBatches(*model, args, *wl, batches, out)
          : (args.shards > 0
                 ? ServeFleetBatches(*model, *wl, batches, args, out)
                 : ServeBatches(*model, batches, args.reuse, args.jobs,
                                args.stats, out));
  if (!served.ok()) {
    std::fprintf(stderr, "serve: %s\n", served.ToString().c_str());
    return 1;
  }
  out.close();  // a truncated transcript must fail here, not at the cmp
  if (out.fail()) {
    std::fprintf(stderr, "serve: write to %s failed\n", args.out_path.c_str());
    return 1;
  }
  std::printf("served %zu batches (%s, reuse=%d, jobs=%zu, shards=%zu) -> %s\n",
              batches.size(), args.compile ? "in-process model" : "loaded snapshot",
              args.reuse ? 1 : 0, args.jobs, args.shards, args.out_path.c_str());
  return 0;
}

/// Writes the mined-rule transcript: candidate measures and the kept
/// rules as parseable canonical DSL. Fully
/// deterministic — fixed-precision measures, no timings, and no thread
/// count — so `cmp` between a --threads 1 and a --threads N run is the
/// parallel-discovery gate CI checks.
void WriteDiscoveryTranscript(const Schema& schema, const DiscoveryResult& result,
                              std::ostream& out) {
  char buf[96];
  size_t kept = 0;
  for (const MinedRuleInfo& r : result.mined) kept += r.kept ? 1 : 0;
  out << "== discover candidates=" << result.mined.size() << " kept=" << kept
      << " sample=" << result.sample_rows << "\n";
  out << "-- candidates\n";
  for (const MinedRuleInfo& r : result.mined) {
    std::snprintf(buf, sizeof(buf), " sup=%.4f conf=%.4f mln=%.4f", r.support,
                  r.confidence, r.mln_score);
    out << (r.kept ? "keep " : "drop ") << r.text << buf << "\n";
  }
  // A `tail` past this marker is a rules file ParseRules accepts verbatim.
  out << "-- rules\n";
  for (const Constraint& rule : result.rules.rules()) {
    out << rule.CanonicalText(schema) << "\n";
  }
}

int RunDiscover(const Args& args) {
  if (args.out_path.empty()) return Usage();

  // Build the dirty table, keeping ground truth and the hand-written
  // rules around when --eval will score repairs against them.
  struct DiscoverInput {
    Dataset dirty;
    RuleSet hand_rules;        // empty for --data
    GroundTruth truth{Dataset(Schema()), {}};  // empty for --data
  };
  auto input = [&]() -> Result<DiscoverInput> {
    if (!args.data_path.empty()) {
      MLN_ASSIGN_OR_RETURN(Dataset data, Dataset::FromCsvFile(args.data_path));
      return DiscoverInput{std::move(data), RuleSet(Schema())};
    }
    HospitalConfig config;
    config.num_hospitals = args.hospitals;
    config.num_measures = args.measures;
    MLN_ASSIGN_OR_RETURN(Workload wl, MakeHospitalWorkload(config));
    ErrorSpec spec;
    spec.error_rate = args.error_rate;
    spec.seed = args.seed;
    MLN_ASSIGN_OR_RETURN(DirtyDataset dd, InjectErrors(wl.clean, wl.rules, spec));
    return DiscoverInput{std::move(dd.dirty), std::move(wl.rules),
                         std::move(dd.truth)};
  }();
  if (!input.ok()) {
    std::fprintf(stderr, "workload: %s\n", input.status().ToString().c_str());
    return 1;
  }
  const Dataset& dirty = input->dirty;

  DiscoveryOptions options;
  options.num_threads = args.threads;
  options.max_lhs = args.max_lhs;
  options.min_support = args.min_support;
  options.min_confidence = args.min_confidence;
  auto mined = DiscoverRules(dirty, options);
  if (!mined.ok()) {
    std::fprintf(stderr, "discover: %s\n", mined.status().ToString().c_str());
    return 1;
  }

  std::ofstream out(args.out_path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "cannot open %s for writing\n", args.out_path.c_str());
    return 1;
  }
  WriteDiscoveryTranscript(dirty.schema(), *mined, out);

  double hand_f1 = 0.0;
  double mined_f1 = 0.0;
  if (args.eval) {
    // The acceptance demo: clean the dirty table with the mined rules
    // alone and compare against the hand-written baseline. The cleaning
    // runs use a fixed sequential configuration, so the transcript stays
    // independent of --threads.
    CleaningOptions copts;
    copts.agp_threshold = args.agp_threshold;
    CleaningEngine engine(copts);
    auto hand = engine.Clean(dirty, input->hand_rules);
    auto ours = engine.Clean(dirty, mined->rules);
    if (!hand.ok() || !ours.ok()) {
      const Status& bad = !hand.ok() ? hand.status() : ours.status();
      std::fprintf(stderr, "eval: %s\n", bad.ToString().c_str());
      return 1;
    }
    hand_f1 = EvaluateRepair(dirty, hand->cleaned, input->truth).F1();
    mined_f1 = EvaluateRepair(dirty, ours->cleaned, input->truth).F1();
    char buf[96];
    std::snprintf(buf, sizeof(buf), "-- eval hand_f1=%.4f mined_f1=%.4f\n",
                  hand_f1, mined_f1);
    out << buf;
    // Tuples FSCR fused greedily past its exhaustive-search cap.
    out << "-- eval greedy_tuples hand=" << hand->report.fscr_greedy_tuples
        << " mined=" << ours->report.fscr_greedy_tuples << "\n";
  }

  out.close();
  if (out.fail()) {
    std::fprintf(stderr, "discover: write to %s failed\n", args.out_path.c_str());
    return 1;
  }
  std::printf("discovered %zu rules (%zu candidates) -> %s\n", mined->rules.size(),
              mined->mined.size(), args.out_path.c_str());
  if (args.eval && mined_f1 < 0.9 * hand_f1) {
    // The CI demo gate: mined rules must clean within 10% of the
    // hand-written baseline.
    std::fprintf(stderr, "eval: mined F1 %.4f below 90%% of hand-written %.4f\n",
                 mined_f1, hand_f1);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return Usage();
  if (!args.failpoint.empty()) {
    // Cross-process crash-sim hook: arm the named site to fire once, then
    // run the command normally. CI's fault job uses this to prove e.g.
    // that `save --failpoint snapshot/before-rename` fails without
    // touching a pre-existing snapshot at --out.
    Status armed = ConfigureFailpoint(args.failpoint, FailpointSpec::Once());
    if (!armed.ok()) {
      std::fprintf(stderr, "--failpoint %s: %s\n", args.failpoint.c_str(),
                   armed.ToString().c_str());
      return 1;
    }
  }
  if (args.command == "save") return RunSave(args);
  if (args.command == "inspect") return RunInspect(args);
  if (args.command == "serve") return RunServe(args);
  if (args.command == "discover") return RunDiscover(args);
  return Usage();
}

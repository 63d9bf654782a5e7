#include "cleaning/engine.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <utility>

#include "cleaning/agp.h"
#include "cleaning/dedup.h"
#include "cleaning/fscr.h"
#include "cleaning/model_state.h"
#include "cleaning/rsc.h"
#include "common/failpoint.h"
#include "common/timer.h"

namespace mlnclean {

/// Bridges worker-side progress ticks to the session's ProgressFn. The
/// multi-producer half is one relaxed atomic counter (workers Tick units
/// as blocks/shards complete — no mutex, no queue); the single-consumer
/// half runs only on the session's driving thread, which Polls the
/// counter between its own work items and turns increases into
/// StageProgress events. The callback therefore always fires on the
/// driving thread, and units_done is monotone per stage by construction.
class StageProgressRelay : public ProgressSink {
 public:
  /// Driving thread, before the stage's drivers start.
  void BeginStage(Stage stage, size_t total, const ProgressFn* fn,
                  const Timer* timer) {
    stage_ = stage;
    total_ = total;
    fn_ = fn;
    timer_ = timer;
    done_.store(0, std::memory_order_relaxed);
    last_emitted_ = 0;
  }

  /// Driving thread, after the stage's drivers returned (the session
  /// emits the final end event itself).
  void EndStage() {
    fn_ = nullptr;
    timer_ = nullptr;
  }

  void Tick(size_t units) override {
    done_.fetch_add(units, std::memory_order_relaxed);
  }

  void Poll() override {
    if (fn_ == nullptr) return;
    const size_t done = std::min(done_.load(std::memory_order_relaxed), total_);
    if (done == last_emitted_ || done == 0) return;
    last_emitted_ = done;
    StageProgress event;
    event.stage = stage_;
    event.units_done = done;
    event.units_total = total_;
    event.seconds = timer_ != nullptr ? timer_->ElapsedSeconds() : 0.0;
    (*fn_)(event);
  }

 private:
  Stage stage_ = Stage::kIndex;
  size_t total_ = 0;
  size_t last_emitted_ = 0;           // driving thread only
  const ProgressFn* fn_ = nullptr;    // null outside a stage
  const Timer* timer_ = nullptr;
  std::atomic<size_t> done_{0};
};

const char* StageName(Stage stage) {
  switch (stage) {
    case Stage::kIndex:
      return "index";
    case Stage::kAgp:
      return "agp";
    case Stage::kLearn:
      return "learn";
    case Stage::kRsc:
      return "rsc";
    case Stage::kFscr:
      return "fscr";
    case Stage::kDedup:
      return "dedup";
  }
  return "unknown";
}

// ---------------------------------------------------------- CleaningEngine

CleaningEngine::CleaningEngine(CleaningOptions defaults)
    : defaults_(std::move(defaults)) {}

Result<CleanModel> CleaningEngine::Compile(const Schema& schema, const RuleSet& rules,
                                           const CleaningOptions& options) const {
  MLN_RETURN_NOT_OK(options.Validate());
  if (!(schema == rules.schema())) {
    return Status::Invalid("rule set is declared over a different schema");
  }
  // Surface unhostable rules once at compile time instead of once per
  // cleaning request (MlnIndex::Build would reject them on every call).
  for (size_t ri = 0; ri < rules.size(); ++ri) {
    if (!rules.rule(ri).IndexCompatible()) {
      return Status::Invalid("rule '" + rules.rule(ri).name() +
                             "' cannot be hosted by the MLN index");
    }
  }
  return CleanModel(std::make_shared<CleanModel::State>(rules, options));
}

Result<CleanModel> CleaningEngine::Compile(const Schema& schema,
                                           const RuleSet& rules) const {
  return Compile(schema, rules, defaults_);
}

Result<CleanResult> CleaningEngine::Clean(const Dataset& dirty, const RuleSet& rules,
                                          SessionOptions opts) const {
  MLN_ASSIGN_OR_RETURN(CleanModel model, Compile(rules.schema(), rules));
  return model.Clean(dirty, std::move(opts));
}

// -------------------------------------------------------------- CleanModel

const Schema& CleanModel::schema() const { return state_->rules.schema(); }
const RuleSet& CleanModel::rules() const { return state_->rules; }
const CleaningOptions& CleanModel::options() const { return state_->options; }

CleanSession CleanModel::NewSession(const Dataset& dirty, SessionOptions opts) const {
  return CleanSession(state_, &dirty, std::move(opts));
}

CleanSession CleanModel::ResumeSession(const Dataset& dirty, const MlnIndex* index,
                                       CleaningReport report,
                                       SessionOptions opts) const {
  CleanSession session(state_, &dirty, std::move(opts));
  session.borrowed_index_ = index;
  session.report_ = std::move(report);
  session.next_ = static_cast<int>(Stage::kFscr);
  return session;
}

CleanSession CleanModel::NewIncrementalSession(SessionOptions opts) const {
  auto accumulated = std::make_unique<Dataset>(state_->rules.schema());
  CleanSession session(state_, accumulated.get(), std::move(opts));
  session.accumulated_ = std::move(accumulated);
  session.incremental_ = true;
  // An empty base index: one empty block per rule, so the first append
  // has blocks to merge into. Cannot fail — Compile already proved every
  // rule index-hostable, and there are no rows to ground.
  Result<MlnIndex> base = MlnIndex::Build(*session.accumulated_, state_->rules);
  if (base.ok()) {
    session.base_index_ = std::move(base).ValueUnsafe();
  } else if (session.terminal_.ok()) {
    session.terminal_ = base.status();
  }
  return session;
}

CleanSession CleanModel::ResumeIncrementalSession(Dataset accumulated,
                                                  MlnIndex base,
                                                  SessionOptions opts) const {
  auto owned = std::make_unique<Dataset>(std::move(accumulated));
  CleanSession session(state_, owned.get(), std::move(opts));
  session.accumulated_ = std::move(owned);
  session.incremental_ = true;
  // The loaded index must actually describe the rebuilt accumulation —
  // wrong dataset, wrong order, or a foreign index all fail here, before
  // any stage could act on inconsistent state.
  if (session.terminal_.ok()) {
    Status valid = base.Validate(*session.accumulated_, state_->rules);
    if (!valid.ok()) {
      session.terminal_ = Status::Invalid(
          "ResumeIncrementalSession: index does not match the accumulated "
          "dataset: " + valid.message());
      return session;
    }
  }
  session.base_index_ = std::move(base);
  // The base already covers every accumulated row; the next index stage
  // appends nothing and just re-copies the base into the working index.
  session.grounded_rows_ = session.accumulated_->num_rows();
  return session;
}

Result<CleanResult> CleanModel::Clean(const Dataset& dirty, SessionOptions opts) const {
  CleanSession session = NewSession(dirty, std::move(opts));
  MLN_RETURN_NOT_OK(session.Resume());
  return session.TakeResult();
}

Status CleanModel::Warm(const Dataset& sample) const {
  SessionOptions opts;
  opts.contribute_weights = true;
  CleanSession session = NewSession(sample, std::move(opts));
  return session.RunUntil(Stage::kLearn);
}

size_t CleanModel::num_stored_weights() const {
  std::shared_lock<std::shared_mutex> lock(state_->weights_mu);
  return state_->weights.size();
}

Result<size_t> CleanModel::AdjustWeightsAcross(
    const std::vector<CleanSession*>& sessions) const {
  // Eq. 6 over sessions instead of Spark parts: accumulate every session's
  // post-learning weights, then write the support-weighted averages back.
  GlobalWeightTable table;
  for (CleanSession* session : sessions) {
    if (session == nullptr) {
      return Status::Invalid("AdjustWeightsAcross: null session");
    }
    if (session->finished() || session->next_stage() != Stage::kRsc) {
      return Status::Invalid(
          "AdjustWeightsAcross: session must have completed kLearn and not "
          "yet run kRsc");
    }
    if (session->mutable_index() == nullptr) {
      return Status::Invalid(
          "AdjustWeightsAcross: session does not own its index");
    }
    table.Accumulate(session->index(), state_->rules);
  }
  for (CleanSession* session : sessions) {
    table.Apply(session->mutable_index(), state_->rules);
  }
  return table.size();
}

// ------------------------------------------------------------ CleanSession

CleanSession::CleanSession(CleanSession&&) noexcept = default;
CleanSession& CleanSession::operator=(CleanSession&&) noexcept = default;
CleanSession::~CleanSession() = default;

CleanSession::CleanSession(std::shared_ptr<CleanModel::State> model,
                           const Dataset* dirty, SessionOptions opts)
    : model_(std::move(model)),
      dirty_(dirty),
      opts_(std::move(opts)),
      dist_(MakeNormalizedDistanceFn(model_->options.distance)) {
  if (opts_.progress) relay_ = std::make_unique<StageProgressRelay>();
  if (!(dirty_->schema() == model_->rules.schema())) {
    terminal_ = Status::Invalid("dataset schema does not match the compiled model");
  }
}

ExecContext CleanSession::MakeContext() const {
  ExecContext ctx;
  ctx.executor = model_->options.ResolvedExecutor();
  ctx.max_workers = model_->options.ResolvedNumThreads();
  ctx.cancel = opts_.cancel.flag();
  if (opts_.deadline.has_value()) {
    ctx.has_deadline = true;
    ctx.deadline = *opts_.deadline;
  }
  ctx.progress = relay_.get();
  return ctx;
}

Status CleanSession::StopStatus(const char* when, Stage stage) const {
  const std::string what = std::string(when) + " stage " + StageName(stage);
  // An explicit cancel keeps its Status even when the deadline has also
  // passed by now — the user asked first.
  if (opts_.cancel.cancelled()) return Status::Cancelled("cancelled " + what);
  return Status::DeadlineExceeded("deadline expired " + what);
}

void CleanSession::EmitProgress(Stage stage, size_t done, size_t total,
                                double seconds) {
  if (!opts_.progress) return;
  StageProgress event;
  event.stage = stage;
  event.units_done = done;
  event.units_total = total;
  event.seconds = seconds;
  opts_.progress(event);
}

size_t CleanSession::StageUnits(Stage stage) const {
  switch (stage) {
    case Stage::kIndex:
      return model_->rules.size();
    case Stage::kAgp:
    case Stage::kLearn:
    case Stage::kRsc:
      return index().num_blocks();
    case Stage::kFscr:
    case Stage::kDedup:
      return dirty_->num_rows();
  }
  return 0;
}

Status CleanSession::RunStage(Stage stage, const ExecContext& ctx) {
  const CleaningOptions& options = model_->options;
  CleaningReport* report = opts_.collect_report ? &report_ : nullptr;
  switch (stage) {
    case Stage::kIndex: {
      if (incremental_) {
        // Ground only the rows appended since the last run into the live
        // base index, then work on a copy — AGP/RSC merge and collapse
        // groups destructively, and the base must survive for the next
        // append. The copy is what makes incremental == cold: the base
        // equals a cold Build over the accumulation (MlnIndex::AppendRows
        // contract), and every later stage starts from it.
        MLN_RETURN_NOT_OK(
            base_index_.AppendRows(*dirty_, model_->rules, grounded_rows_, ctx));
        grounded_rows_ = dirty_->num_rows();
        owned_index_ = base_index_;
        return Status::OK();
      }
      MLN_ASSIGN_OR_RETURN(owned_index_,
                           MlnIndex::Build(*dirty_, model_->rules, ctx));
      return Status::OK();
    }
    case Stage::kAgp:
      RunAgpAll(&owned_index_, options, dist_, report, ctx);
      return Status::OK();
    case Stage::kLearn: {
      bool reused = false;
      if (!options.learn_weights) {
        owned_index_.AssignPriorWeights();  // ablation: Eq. 4 priors only
      } else if (opts_.reuse_model_weights) {
        // Serving path: Eq. 4 priors for γs the store has never seen,
        // stored Eq. 6 averages for the rest — no Newton solves. The
        // prior pass touches only this session's index, so it runs
        // outside the lock; Apply holds it shared, letting concurrent
        // reuse sessions read the store in parallel.
        owned_index_.AssignPriorWeights();
        std::shared_lock<std::shared_mutex> lock(model_->weights_mu);
        if (model_->weights.size() > 0) {
          model_->weights.Apply(&owned_index_, model_->rules);
          reused = true;
        }
      }
      if (options.learn_weights && !reused) {
        owned_index_.LearnWeights(options.learner, ctx);
      }
      // Only freshly learned weights enter the store: contributing reused
      // weights would re-average the store with its own output, and
      // contributing Eq. 4 priors would record never-learned values. A
      // stopped (cancelled / past-deadline) run never contributes a
      // half-learned index either.
      if (opts_.contribute_weights && options.learn_weights && !reused &&
          !ctx.Stopped()) {
        MLN_FAILPOINT("engine/weight-contribute");
        std::unique_lock<std::shared_mutex> lock(model_->weights_mu);
        model_->weights.Accumulate(owned_index_, model_->rules);
      }
      return Status::OK();
    }
    case Stage::kRsc:
      RunRscAll(&owned_index_, dist_, report, ctx);
      return Status::OK();
    case Stage::kFscr:
      cleaned_ = dirty_->Clone();
      RunFscr(*dirty_, model_->rules, index(), options, &cleaned_, report, ctx);
      return Status::OK();
    case Stage::kDedup:
      if (options.remove_duplicates) {
        deduped_ = RemoveDuplicates(cleaned_,
                                    report ? &report->duplicates : nullptr, ctx);
      } else {
        deduped_ = cleaned_;
      }
      return Status::OK();
  }
  return Status::Internal("unknown stage");
}

Status CleanSession::RunUntil(Stage last) {
  if (!terminal_.ok()) return terminal_;
  const ExecContext ctx = MakeContext();
  const int target = static_cast<int>(last);
  while (next_ <= target && next_ < kNumStages) {
    const Stage stage = static_cast<Stage>(next_);
    if (ctx.Stopped()) {
      terminal_ = StopStatus("before", stage);
      return terminal_;
    }
    const size_t units = StageUnits(stage);
    Timer timer;
    Status status;
    // Panic-free boundary: nothing a stage driver, a ParallelFor body, a
    // progress callback, or an injected failpoint throws may escape a
    // session — the exception becomes this session's terminal Status
    // (kResourceExhausted for bad_alloc, kInternal otherwise) and the
    // caller (a server worker loop, a CLI) stays alive. The input dataset
    // is untouched either way: repairs only ever land in the session-owned
    // clone.
    try {
      EmitProgress(stage, 0, units, 0.0);
      if (relay_ != nullptr) {
        relay_->BeginStage(stage, units, &opts_.progress, &timer);
      }
      MLN_FAILPOINT(std::string("engine/stage-") + StageName(stage));
      status = RunStage(stage, ctx);
    } catch (...) {
      status = StatusFromCurrentException(std::string("stage ") +
                                          StageName(stage) + " failed");
    }
    if (relay_ != nullptr) relay_->EndStage();
    const double seconds = timer.ElapsedSeconds();
    if (status.ok() && ctx.Stopped()) {
      // The stage driver stopped at a block/shard boundary; its partial
      // output stays inside the session (the input dataset is untouched).
      // Drivers that report their own stop (MlnIndex::Build) already
      // derive the right code from ExecContext::StopStatus.
      status = StopStatus("during", stage);
    }
    if (!status.ok()) {
      terminal_ = status;
      return terminal_;
    }
    switch (stage) {
      case Stage::kIndex:
        report_.timings.index = seconds;
        break;
      case Stage::kAgp:
        report_.timings.agp = seconds;
        break;
      case Stage::kLearn:
        report_.timings.learn = seconds;
        break;
      case Stage::kRsc:
        report_.timings.rsc = seconds;
        break;
      case Stage::kFscr:
        report_.timings.fscr = seconds;
        break;
      case Stage::kDedup:
        report_.timings.dedup = seconds;
        break;
    }
    report_.timings.total += seconds;
    // The end event runs user code too: a throwing callback poisons this
    // session (the stage's work is done, but the user clearly cannot
    // consume it), never the process.
    try {
      EmitProgress(stage, units, units, seconds);
    } catch (...) {
      terminal_ = StatusFromCurrentException(
          std::string("progress callback failed after stage ") +
          StageName(stage));
      return terminal_;
    }
    ++next_;
  }
  return Status::OK();
}

Status CleanSession::Resume() { return RunUntil(Stage::kDedup); }

Status CleanSession::AppendRows(const Dataset& batch) {
  if (!terminal_.ok()) return terminal_;
  if (!incremental_) {
    return Status::Invalid(
        "AppendRows requires an incremental session "
        "(CleanModel::NewIncrementalSession)");
  }
  if (!(batch.schema() == model_->rules.schema())) {
    // Reject the batch without poisoning the stream: the accumulation is
    // untouched, the caller can fix the batch and append again.
    return Status::Invalid("batch schema does not match the compiled model");
  }
  accumulated_->Reserve(accumulated_->num_rows() + batch.num_rows());
  const auto batch_rows = static_cast<TupleId>(batch.num_rows());
  for (TupleId tid = 0; tid < batch_rows; ++tid) {
    MLN_RETURN_NOT_OK(accumulated_->Append(batch.row(tid)));
  }
  // Rewind to the index stage: the next run recleans the accumulation
  // from a fresh working copy. Only the appended rows get ground (the
  // base index survives); everything downstream is recomputed, so the
  // previous run's outputs are dropped here rather than served stale.
  next_ = static_cast<int>(Stage::kIndex);
  report_ = CleaningReport();
  cleaned_ = Dataset();
  deduped_ = Dataset();
  return Status::OK();
}

Result<CleanResult> CleanSession::TakeResult() {
  if (!terminal_.ok()) return terminal_;
  if (!finished()) {
    return Status::Invalid("session has stages left to run; call Resume() first");
  }
  CleanResult result;
  result.cleaned = std::move(cleaned_);
  result.deduped = std::move(deduped_);
  result.report = std::move(report_);
  terminal_ = Status::Invalid("result already taken from this session");
  return result;
}

}  // namespace mlnclean

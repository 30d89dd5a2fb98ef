#include "baselines/spark.h"

#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "lang/scalar_ops.h"
#include "runtime/plan.h"
#include "runtime/spark_cache.h"

namespace mitos::baselines {

namespace {

using lang::Expr;
using lang::ExprKind;
using lang::ExprPtr;
using lang::StmtKind;
using lang::StmtList;
using lang::StmtPtr;

// One run of the driver: its environments, RDD cache and statistics live
// exactly as long as the program it interprets.
class SparkDriver {
 public:
  SparkDriver(runtime::Backend* backend, sim::SimFileSystem* fs,
              const SparkOptions& options)
      : backend_(backend), fs_(fs), options_(options) {}

  StatusOr<runtime::RunStats> Run(const lang::Program& program);

 private:
  // Lineage is a lang::Expr tree whose leaves are readFile/bagLit nodes and
  // whose variable references have been substituted away. Shared subtrees
  // (the same assignment referenced twice) share Expr nodes, which is what
  // the cache map keys on.
  using Lineage = lang::ExprPtr;

  StatusOr<Datum> EvalScalar(const lang::Expr& expr);
  StatusOr<bool> EvalCondition(const lang::Expr& expr);
  StatusOr<std::string> EvalFilename(const lang::Expr& expr);
  // Substitutes bag variables with their lineage; evaluates embedded scalar
  // expressions (file names, wrapped scalars) eagerly in the driver.
  StatusOr<Lineage> ResolveBag(const lang::Expr& expr);

  Status RunStmts(const lang::StmtList& stmts);
  Status RunStmt(const lang::Stmt& stmt);

  // Runs one job computing `action` and writing it to `sink_file`; also
  // materializes every named, not-yet-cached bag used by the job into the
  // RDD cache. Collect actions write to a cache file and read it back.
  Status RunJob(const Lineage& action, const std::string& sink_file);
  // Collects a (one-element) bag into the driver.
  StatusOr<DatumVector> Collect(const Lineage& lineage);

  // Returns true when `lineage` is a leaf that needs no caching (literal,
  // plain file read, or an existing cache read).
  static bool IsLeaf(const lang::Expr& expr);

  runtime::Backend* backend_;
  sim::SimFileSystem* fs_;
  const SparkOptions& options_;

  std::map<std::string, Datum> scalar_env_;
  std::map<std::string, Lineage> bag_env_;
  // Materialized lineage nodes -> cache file name.
  std::map<const lang::Expr*, std::string> cached_;
  // Named bags awaiting materialization by the next job.
  std::map<const lang::Expr*, std::string> pending_cache_names_;
  // Keeps every node used as a cache key alive: the maps above key on raw
  // pointers, and a freed node's address could be reused by a fresh one.
  std::vector<Lineage> cache_key_keepalive_;

  int64_t next_cache_id_ = 0;
  int64_t driver_iterations_ = 0;
  runtime::RunStats stats_;
};

bool SparkDriver::IsLeaf(const Expr& expr) {
  return expr.kind == ExprKind::kBagLit ||
         expr.kind == ExprKind::kReadFile;
}

StatusOr<runtime::RunStats> SparkDriver::Run(const lang::Program& program) {
  const double t0 = backend_->now();
  stats_.jobs = 0;
  MITOS_RETURN_IF_ERROR(RunStmts(program.stmts));

  // Drop the RDD cache.
  for (const std::string& name : fs_->ListFiles()) {
    if (runtime::IsCacheFile(name)) fs_->Remove(name);
  }
  stats_.total_seconds = backend_->now() - t0;
  return stats_;
}

Status SparkDriver::RunStmts(const StmtList& stmts) {
  for (const StmtPtr& stmt : stmts) {
    MITOS_RETURN_IF_ERROR(RunStmt(*stmt));
  }
  return Status::Ok();
}

Status SparkDriver::RunStmt(const lang::Stmt& stmt) {
  switch (stmt.kind) {
    case StmtKind::kAssign: {
      const Expr& rhs = *stmt.expr;
      bool is_bag = lang::IsBagExprKind(rhs.kind) ||
                    (rhs.kind == ExprKind::kVarRef &&
                     bag_env_.count(rhs.var) > 0);
      if (is_bag) {
        StatusOr<Lineage> lineage = ResolveBag(rhs);
        if (!lineage.ok()) return lineage.status();
        bag_env_[stmt.var] = std::move(lineage).value();
      } else {
        StatusOr<Datum> value = EvalScalar(rhs);
        if (!value.ok()) return value.status();
        scalar_env_[stmt.var] = std::move(value).value();
      }
      return Status::Ok();
    }
    case StmtKind::kWhile: {
      while (true) {
        StatusOr<bool> cond = EvalCondition(*stmt.expr);
        if (!cond.ok()) return cond.status();
        if (!*cond) break;
        if (++driver_iterations_ > options_.max_driver_iterations) {
          return Status::FailedPrecondition("driver loop limit exceeded");
        }
        MITOS_RETURN_IF_ERROR(RunStmts(stmt.body));
      }
      return Status::Ok();
    }
    case StmtKind::kDoWhile: {
      while (true) {
        if (++driver_iterations_ > options_.max_driver_iterations) {
          return Status::FailedPrecondition("driver loop limit exceeded");
        }
        MITOS_RETURN_IF_ERROR(RunStmts(stmt.body));
        StatusOr<bool> cond = EvalCondition(*stmt.expr);
        if (!cond.ok()) return cond.status();
        if (!*cond) break;
      }
      return Status::Ok();
    }
    case StmtKind::kIf: {
      StatusOr<bool> cond = EvalCondition(*stmt.expr);
      if (!cond.ok()) return cond.status();
      return RunStmts(*cond ? stmt.body : stmt.else_body);
    }
    case StmtKind::kWriteFile: {
      StatusOr<std::string> filename = EvalFilename(*stmt.filename);
      if (!filename.ok()) return filename.status();
      StatusOr<Lineage> lineage = ResolveBag(*stmt.expr);
      if (!lineage.ok()) return lineage.status();
      // Overwrite semantics: the job's sink instances append.
      fs_->Remove(*filename);
      return RunJob(*lineage, *filename);
    }
  }
  return Status::Internal("unknown statement kind");
}

StatusOr<Datum> SparkDriver::EvalScalar(const Expr& expr) {
  switch (expr.kind) {
    case ExprKind::kLit:
      return expr.lit;
    case ExprKind::kVarRef: {
      auto it = scalar_env_.find(expr.var);
      if (it == scalar_env_.end()) {
        return Status::InvalidArgument("undefined driver scalar: " +
                                       expr.var);
      }
      return it->second;
    }
    case ExprKind::kBinOp: {
      StatusOr<Datum> a = EvalScalar(*expr.a);
      if (!a.ok()) return a.status();
      StatusOr<Datum> b = EvalScalar(*expr.b);
      if (!b.ok()) return b.status();
      return lang::ApplyBinOp(expr.binop, *a, *b);
    }
    case ExprKind::kNot: {
      StatusOr<Datum> a = EvalScalar(*expr.a);
      if (!a.ok()) return a.status();
      if (!a->is_bool()) return Status::InvalidArgument("'!' on non-bool");
      return Datum::Bool(!a->boolean());
    }
    case ExprKind::kScalarFromBag: {
      // Spark-style: collect() the bag into the driver (a real job).
      StatusOr<Lineage> lineage = ResolveBag(*expr.a);
      if (!lineage.ok()) return lineage.status();
      StatusOr<DatumVector> data = Collect(*lineage);
      if (!data.ok()) return data.status();
      if (data->size() != 1) {
        return Status::InvalidArgument(
            "collect for scalarOf expected exactly 1 element, got " +
            std::to_string(data->size()));
      }
      return (*data)[0];
    }
    default:
      return Status::InvalidArgument("expected a scalar expression: " +
                                     lang::ToSource(expr));
  }
}

StatusOr<bool> SparkDriver::EvalCondition(const Expr& expr) {
  bool is_bag = lang::IsBagExprKind(expr.kind) ||
                (expr.kind == ExprKind::kVarRef &&
                 bag_env_.count(expr.var) > 0);
  Datum value;
  if (is_bag) {
    StatusOr<Lineage> lineage = ResolveBag(expr);
    if (!lineage.ok()) return lineage.status();
    StatusOr<DatumVector> data = Collect(*lineage);
    if (!data.ok()) return data.status();
    if (data->size() != 1) {
      return Status::InvalidArgument("bag condition must have 1 element");
    }
    value = (*data)[0];
  } else {
    StatusOr<Datum> scalar = EvalScalar(expr);
    if (!scalar.ok()) return scalar.status();
    value = *scalar;
  }
  if (!value.is_bool()) {
    return Status::InvalidArgument("condition is not boolean");
  }
  return value.boolean();
}

StatusOr<std::string> SparkDriver::EvalFilename(const Expr& expr) {
  bool is_bag = lang::IsBagExprKind(expr.kind) ||
                (expr.kind == ExprKind::kVarRef &&
                 bag_env_.count(expr.var) > 0);
  Datum value;
  if (is_bag) {
    StatusOr<Lineage> lineage = ResolveBag(expr);
    if (!lineage.ok()) return lineage.status();
    StatusOr<DatumVector> data = Collect(*lineage);
    if (!data.ok()) return data.status();
    if (data->size() != 1) {
      return Status::InvalidArgument("bag filename must have 1 element");
    }
    value = (*data)[0];
  } else {
    StatusOr<Datum> scalar = EvalScalar(expr);
    if (!scalar.ok()) return scalar.status();
    value = *scalar;
  }
  if (!value.is_string()) {
    return Status::InvalidArgument("filename is not a string");
  }
  return value.str();
}

StatusOr<SparkDriver::Lineage> SparkDriver::ResolveBag(const Expr& expr) {
  switch (expr.kind) {
    case ExprKind::kVarRef: {
      auto it = bag_env_.find(expr.var);
      if (it == bag_env_.end()) {
        return Status::InvalidArgument("undefined RDD variable: " + expr.var);
      }
      // Named, non-trivial lineage gets a cache slot so the next job
      // referencing it re-reads instead of recomputing (RDD .cache()).
      const Expr* node = it->second.get();
      if (!IsLeaf(*node) && cached_.find(node) == cached_.end() &&
          pending_cache_names_.find(node) == pending_cache_names_.end()) {
        pending_cache_names_[node] = runtime::CacheFileName(
            "rdd" + std::to_string(next_cache_id_++) + "_" + expr.var);
        cache_key_keepalive_.push_back(it->second);
      }
      return it->second;
    }
    case ExprKind::kBagLit:
      return lang::BagLit(expr.bag_lit);
    case ExprKind::kFromScalar: {
      StatusOr<Datum> value = EvalScalar(*expr.a);
      if (!value.ok()) return value.status();
      return lang::BagLit({*value});
    }
    case ExprKind::kReadFile: {
      // File names evaluate eagerly in the driver (like sc.textFile).
      StatusOr<std::string> filename = EvalFilename(*expr.a);
      if (!filename.ok()) return filename.status();
      return lang::ReadFile(lang::LitString(*filename));
    }
    case ExprKind::kMap: {
      StatusOr<Lineage> in = ResolveBag(*expr.a);
      if (!in.ok()) return in.status();
      return lang::Map(std::move(in).value(), expr.unary);
    }
    case ExprKind::kFilter: {
      StatusOr<Lineage> in = ResolveBag(*expr.a);
      if (!in.ok()) return in.status();
      return lang::Filter(std::move(in).value(), expr.pred);
    }
    case ExprKind::kFlatMap: {
      StatusOr<Lineage> in = ResolveBag(*expr.a);
      if (!in.ok()) return in.status();
      return lang::FlatMap(std::move(in).value(), expr.flat);
    }
    case ExprKind::kReduceByKey: {
      StatusOr<Lineage> in = ResolveBag(*expr.a);
      if (!in.ok()) return in.status();
      return lang::ReduceByKey(std::move(in).value(), expr.binary);
    }
    case ExprKind::kReduce: {
      StatusOr<Lineage> in = ResolveBag(*expr.a);
      if (!in.ok()) return in.status();
      return lang::Reduce(std::move(in).value(), expr.binary);
    }
    case ExprKind::kDistinct: {
      StatusOr<Lineage> in = ResolveBag(*expr.a);
      if (!in.ok()) return in.status();
      return lang::Distinct(std::move(in).value());
    }
    case ExprKind::kCount: {
      StatusOr<Lineage> in = ResolveBag(*expr.a);
      if (!in.ok()) return in.status();
      return lang::Count(std::move(in).value());
    }
    case ExprKind::kJoin: {
      StatusOr<Lineage> a = ResolveBag(*expr.a);
      if (!a.ok()) return a.status();
      StatusOr<Lineage> b = ResolveBag(*expr.b);
      if (!b.ok()) return b.status();
      return lang::Join(std::move(a).value(), std::move(b).value());
    }
    case ExprKind::kUnion: {
      StatusOr<Lineage> a = ResolveBag(*expr.a);
      if (!a.ok()) return a.status();
      StatusOr<Lineage> b = ResolveBag(*expr.b);
      if (!b.ok()) return b.status();
      return lang::Union(std::move(a).value(), std::move(b).value());
    }
    case ExprKind::kCombine2: {
      StatusOr<Lineage> a = ResolveBag(*expr.a);
      if (!a.ok()) return a.status();
      StatusOr<Lineage> b = ResolveBag(*expr.b);
      if (!b.ok()) return b.status();
      return lang::Combine2(std::move(a).value(), std::move(b).value(),
                            expr.binary);
    }
    case ExprKind::kScalarFromBag:
      // As a bag operand this is just the one-element bag itself.
      return ResolveBag(*expr.a);
    default:
      return Status::InvalidArgument("expected a bag expression: " +
                                     lang::ToSource(expr));
  }
}

Status SparkDriver::RunJob(const Lineage& action,
                           const std::string& sink_file) {
  // Emit the lineage DAG as a straight-line program; shared subtrees emit
  // once, cached nodes become cache reads.
  lang::Program job;
  std::map<const Expr*, std::string> names;
  int temp_counter = 0;
  std::vector<std::pair<const Expr*, std::string>> materialized;

  std::function<StatusOr<std::string>(const Lineage&)> emit =
      [&](const Lineage& node) -> StatusOr<std::string> {
    auto found = names.find(node.get());
    if (found != names.end()) return found->second;

    std::string name = "_rdd" + std::to_string(temp_counter++);
    auto cached = cached_.find(node.get());
    if (cached != cached_.end()) {
      job.stmts.push_back(
          lang::Assign(name, lang::ReadFile(lang::LitString(cached->second))));
      names[node.get()] = name;
      return name;
    }

    // Rebuild the node with children replaced by variable references.
    ExprPtr rebuilt;
    const Expr& e = *node;
    switch (e.kind) {
      case ExprKind::kBagLit:
        rebuilt = lang::BagLit(e.bag_lit);
        break;
      case ExprKind::kReadFile:
        rebuilt = lang::ReadFile(e.a);  // already a literal filename
        break;
      case ExprKind::kMap:
      case ExprKind::kFilter:
      case ExprKind::kFlatMap:
      case ExprKind::kReduceByKey:
      case ExprKind::kReduce:
      case ExprKind::kDistinct:
      case ExprKind::kCount: {
        StatusOr<std::string> in = emit(e.a);
        if (!in.ok()) return in.status();
        ExprPtr in_ref = lang::Var(*in);
        switch (e.kind) {
          case ExprKind::kMap:
            rebuilt = lang::Map(in_ref, e.unary);
            break;
          case ExprKind::kFilter:
            rebuilt = lang::Filter(in_ref, e.pred);
            break;
          case ExprKind::kFlatMap:
            rebuilt = lang::FlatMap(in_ref, e.flat);
            break;
          case ExprKind::kReduceByKey:
            rebuilt = lang::ReduceByKey(in_ref, e.binary);
            break;
          case ExprKind::kReduce:
            rebuilt = lang::Reduce(in_ref, e.binary);
            break;
          case ExprKind::kDistinct:
            rebuilt = lang::Distinct(in_ref);
            break;
          default:
            rebuilt = lang::Count(in_ref);
            break;
        }
        break;
      }
      case ExprKind::kJoin:
      case ExprKind::kUnion:
      case ExprKind::kCombine2: {
        StatusOr<std::string> a = emit(e.a);
        if (!a.ok()) return a.status();
        StatusOr<std::string> b = emit(e.b);
        if (!b.ok()) return b.status();
        if (e.kind == ExprKind::kJoin) {
          rebuilt = lang::Join(lang::Var(*a), lang::Var(*b));
        } else if (e.kind == ExprKind::kUnion) {
          rebuilt = lang::Union(lang::Var(*a), lang::Var(*b));
        } else {
          rebuilt = lang::Combine2(lang::Var(*a), lang::Var(*b), e.binary);
        }
        break;
      }
      default:
        return Status::Internal("unexpected lineage node: " +
                                lang::ToSource(e));
    }
    job.stmts.push_back(lang::Assign(name, rebuilt));
    names[node.get()] = name;

    // Materialize named bags computed by this job into the RDD cache.
    auto pending = pending_cache_names_.find(node.get());
    if (pending != pending_cache_names_.end()) {
      job.stmts.push_back(lang::WriteFile(
          lang::Var(name), lang::LitString(pending->second)));
      materialized.emplace_back(node.get(), pending->second);
    }
    return name;
  };

  StatusOr<std::string> action_var = emit(action);
  if (!action_var.ok()) return action_var.status();
  job.stmts.push_back(
      lang::WriteFile(lang::Var(*action_var), lang::LitString(sink_file)));

  StatusOr<runtime::Plan> plan = runtime::CompilePlan(
      job, runtime::PlanOptions{.machines = backend_->num_machines()});
  if (!plan.ok()) return plan.status();

  runtime::ExecutorOptions exec_options;
  exec_options.launch_base = options_.launch_base;
  exec_options.launch_per_machine = options_.launch_per_machine;
  exec_options.metrics = options_.metrics;
  // Spark executes jobs as stages: shuffle outputs materialize before the
  // next stage starts.
  exec_options.blocking_shuffles = true;
  StatusOr<runtime::RunStats> job_stats =
      runtime::ExecutePlan(backend_, fs_, *plan, exec_options);
  if (!job_stats.ok()) return job_stats.status();

  stats_.jobs += 1;
  stats_.launch_seconds += job_stats->launch_seconds;
  stats_.bags += job_stats->bags;
  stats_.elements += job_stats->elements;
  stats_.hoisted_reuses += job_stats->hoisted_reuses;
  for (const auto& [name, cpu] : job_stats->operator_cpu) {
    stats_.operator_cpu[name] += cpu;
  }
  stats_.cluster.messages += job_stats->cluster.messages;
  stats_.cluster.network_bytes += job_stats->cluster.network_bytes;
  stats_.cluster.local_bytes += job_stats->cluster.local_bytes;
  stats_.cluster.disk_bytes += job_stats->cluster.disk_bytes;
  stats_.cluster.cpu_seconds += job_stats->cluster.cpu_seconds;

  for (const auto& [node, cache_file] : materialized) {
    cached_[node] = cache_file;
    pending_cache_names_.erase(node);
  }
  return Status::Ok();
}

StatusOr<DatumVector> SparkDriver::Collect(const Lineage& lineage) {
  std::string file = runtime::CacheFileName(
      "collect" + std::to_string(next_cache_id_++));
  MITOS_RETURN_IF_ERROR(RunJob(lineage, file));
  StatusOr<DatumVector> data = fs_->Read(file);
  fs_->Remove(file);
  return data;
}

}  // namespace

StatusOr<runtime::RunStats> RunSpark(runtime::Backend* backend,
                                     sim::SimFileSystem* fs,
                                     const lang::Program& program,
                                     const SparkOptions& options) {
  return SparkDriver(backend, fs, options).Run(program);
}

}  // namespace mitos::baselines

#include "ir/ssa.h"

#include <map>
#include <utility>
#include <vector>

#include "common/logging.h"

namespace mitos::ir {

namespace {

using lang::ExprKind;
using lang::StmtKind;
using lang::StmtList;
using lang::StmtPtr;

// Source variable names assigned anywhere in `stmts` (recursively).
void CollectAssigned(const StmtList& stmts, std::set<std::string>* out) {
  for (const StmtPtr& stmt : stmts) {
    switch (stmt->kind) {
      case StmtKind::kAssign:
        out->insert(stmt->var);
        break;
      case StmtKind::kWhile:
      case StmtKind::kDoWhile:
        CollectAssigned(stmt->body, out);
        break;
      case StmtKind::kIf:
        CollectAssigned(stmt->body, out);
        CollectAssigned(stmt->else_body, out);
        break;
      case StmtKind::kWriteFile:
        break;
    }
  }
}

class SsaBuilder {
 public:
  SsaBuilder(const lang::Program& program,
             const std::set<std::string>& singleton_vars)
      : source_(program), singleton_names_(singleton_vars) {}

  StatusOr<Program> Run() {
    if (!IsNormalized(source_)) {
      return Status::FailedPrecondition(
          "SSA construction requires a Preparator-normalized program");
    }
    current_ = NewBlock("entry");
    MITOS_RETURN_IF_ERROR(BuildStmts(source_.stmts));
    Block(current_).term.kind = Terminator::Kind::kExit;
    return std::move(program_);
  }

 private:
  BasicBlock& Block(BlockId id) {
    return program_.blocks[static_cast<size_t>(id)];
  }

  BlockId NewBlock(std::string label) {
    BasicBlock block;
    block.label = std::move(label);
    program_.blocks.push_back(std::move(block));
    return static_cast<BlockId>(program_.blocks.size() - 1);
  }

  // Creates a fresh SSA variable versioning source name `name`.
  VarId NewVar(const std::string& name, bool singleton) {
    VarInfo info;
    info.name = name + std::to_string(++versions_[name]);
    info.singleton = singleton;
    program_.vars.push_back(std::move(info));
    return static_cast<VarId>(program_.vars.size() - 1);
  }

  StatusOr<VarId> Lookup(const std::string& name) const {
    auto it = env_.find(name);
    if (it == env_.end()) {
      return Status::Internal("SSA: unresolved variable '" + name + "'");
    }
    return it->second;
  }

  // Appends `stmt` to the current block, recording the definition site.
  void Emit(Stmt stmt) {
    if (stmt.result != kNoVar) {
      VarInfo& info = program_.vars[static_cast<size_t>(stmt.result)];
      info.def_block = current_;
      info.def_index = static_cast<int>(Block(current_).stmts.size());
    }
    Block(current_).stmts.push_back(std::move(stmt));
  }

  bool InputsSingleton(const std::vector<VarId>& inputs) const {
    for (VarId v : inputs) {
      if (v == kNoVar || !program_.var(v).singleton) return false;
    }
    return true;
  }

  // Singleton propagation: wrapped-scalar names are singleton by
  // construction; reduce/count/combine2 always produce one-element bags;
  // map/filter/Φ preserve singleton-ness of their inputs.
  bool StmtSingleton(const std::string& name, OpKind op,
                     const std::vector<VarId>& inputs) const {
    if (singleton_names_.count(name) > 0) return true;
    switch (op) {
      case OpKind::kReduce:
      case OpKind::kCount:
      case OpKind::kCombine2:
        return true;
      case OpKind::kMap:
      case OpKind::kFilter:
      case OpKind::kPhi:
        return InputsSingleton(inputs);
      default:
        return false;
    }
  }

  Status BuildStmts(const StmtList& stmts) {
    for (const StmtPtr& stmt : stmts) {
      MITOS_RETURN_IF_ERROR(BuildStmt(*stmt));
    }
    return Status::Ok();
  }

  Status BuildAssign(const lang::Stmt& s) {
    const lang::Expr& e = *s.expr;
    Stmt stmt;
    auto add_input = [&](const lang::ExprPtr& operand) -> Status {
      StatusOr<VarId> id = Lookup(operand->var);
      if (!id.ok()) return id.status();
      stmt.inputs.push_back(*id);
      return Status::Ok();
    };
    switch (e.kind) {
      case ExprKind::kBagLit:
        stmt.op = OpKind::kBagLit;
        stmt.bag_lit = e.bag_lit;
        break;
      case ExprKind::kReadFile:
        stmt.op = OpKind::kReadFile;
        MITOS_RETURN_IF_ERROR(add_input(e.a));
        break;
      case ExprKind::kMap:
        stmt.op = OpKind::kMap;
        stmt.unary = e.unary;
        MITOS_RETURN_IF_ERROR(add_input(e.a));
        break;
      case ExprKind::kFilter:
        stmt.op = OpKind::kFilter;
        stmt.pred = e.pred;
        MITOS_RETURN_IF_ERROR(add_input(e.a));
        break;
      case ExprKind::kFlatMap:
        stmt.op = OpKind::kFlatMap;
        stmt.flat = e.flat;
        MITOS_RETURN_IF_ERROR(add_input(e.a));
        break;
      case ExprKind::kReduceByKey:
        stmt.op = OpKind::kReduceByKey;
        stmt.binary = e.binary;
        MITOS_RETURN_IF_ERROR(add_input(e.a));
        break;
      case ExprKind::kReduce:
        stmt.op = OpKind::kReduce;
        stmt.binary = e.binary;
        MITOS_RETURN_IF_ERROR(add_input(e.a));
        break;
      case ExprKind::kJoin:
        stmt.op = OpKind::kJoin;
        MITOS_RETURN_IF_ERROR(add_input(e.a));
        MITOS_RETURN_IF_ERROR(add_input(e.b));
        break;
      case ExprKind::kUnion:
        stmt.op = OpKind::kUnion;
        MITOS_RETURN_IF_ERROR(add_input(e.a));
        MITOS_RETURN_IF_ERROR(add_input(e.b));
        break;
      case ExprKind::kDistinct:
        stmt.op = OpKind::kDistinct;
        MITOS_RETURN_IF_ERROR(add_input(e.a));
        break;
      case ExprKind::kCount:
        stmt.op = OpKind::kCount;
        MITOS_RETURN_IF_ERROR(add_input(e.a));
        break;
      case ExprKind::kCombine2:
        stmt.op = OpKind::kCombine2;
        stmt.binary = e.binary;
        MITOS_RETURN_IF_ERROR(add_input(e.a));
        MITOS_RETURN_IF_ERROR(add_input(e.b));
        break;
      default:
        return Status::Internal("non-normalized assignment rhs: " +
                                lang::ToSource(e));
    }
    stmt.result = NewVar(s.var, StmtSingleton(s.var, stmt.op, stmt.inputs));
    env_[s.var] = stmt.result;
    Emit(std::move(stmt));
    return Status::Ok();
  }

  // Emits a Φ into the current block, versioning source variable `name`.
  VarId EmitPhi(const std::string& name, std::vector<VarId> inputs) {
    Stmt stmt;
    stmt.op = OpKind::kPhi;
    stmt.inputs = std::move(inputs);
    stmt.result = NewVar(name, StmtSingleton(name, OpKind::kPhi, stmt.inputs));
    VarId id = stmt.result;
    Emit(std::move(stmt));
    env_[name] = id;
    return id;
  }

  Status BuildIf(const lang::Stmt& s) {
    int n = ++construct_counter_;
    StatusOr<VarId> cond = Lookup(s.expr->var);
    if (!cond.ok()) return cond.status();

    std::string tag = "if" + std::to_string(n);
    BlockId then_b = NewBlock(tag + "_then");
    BlockId else_b = s.else_body.empty() ? kNoBlock : NewBlock(tag + "_else");
    BlockId join_b = NewBlock(tag + "_join");

    Block(current_).term = {Terminator::Kind::kBranch, then_b,
                            else_b != kNoBlock ? else_b : join_b, *cond};

    std::map<std::string, VarId> env_before = env_;

    current_ = then_b;
    MITOS_RETURN_IF_ERROR(BuildStmts(s.body));
    Block(current_).term = {Terminator::Kind::kJump, join_b, kNoBlock,
                            kNoVar};
    std::map<std::string, VarId> env_then = env_;

    std::map<std::string, VarId> env_else = env_before;
    if (else_b != kNoBlock) {
      env_ = env_before;
      current_ = else_b;
      MITOS_RETURN_IF_ERROR(BuildStmts(s.else_body));
      Block(current_).term = {Terminator::Kind::kJump, join_b, kNoBlock,
                              kNoVar};
      env_else = env_;
    }

    // Merge environments in the join block.
    current_ = join_b;
    env_.clear();
    for (const auto& [name, then_id] : env_then) {
      auto it = env_else.find(name);
      if (it == env_else.end()) continue;  // defined on one path only: drop
      if (it->second == then_id) {
        env_[name] = then_id;
      } else {
        EmitPhi(name, {then_id, it->second});
      }
    }
    return Status::Ok();
  }

  Status BuildWhile(const lang::Stmt& s) {
    int n = ++construct_counter_;
    std::string tag = "while" + std::to_string(n);
    BlockId header_b = NewBlock(tag + "_header");
    BlockId body_b = NewBlock(tag + "_body");
    BlockId after_b = NewBlock(tag + "_after");

    Block(current_).term = {Terminator::Kind::kJump, header_b, kNoBlock,
                            kNoVar};

    std::set<std::string> assigned;
    CollectAssigned(s.body, &assigned);

    // Φs in the header for loop-carried variables.
    current_ = header_b;
    std::vector<std::pair<std::string, int>> patches;  // (name, stmt index)
    for (const std::string& name : assigned) {
      auto it = env_.find(name);
      if (it == env_.end()) continue;  // body-local variable: no Φ
      patches.emplace_back(name,
                           static_cast<int>(Block(header_b).stmts.size()));
      EmitPhi(name, {it->second, kNoVar});
    }

    StatusOr<VarId> cond = Lookup(s.expr->var);
    if (!cond.ok()) return cond.status();
    Block(header_b).term = {Terminator::Kind::kBranch, body_b, after_b,
                            *cond};
    std::map<std::string, VarId> env_header = env_;

    current_ = body_b;
    MITOS_RETURN_IF_ERROR(BuildStmts(s.body));
    Block(current_).term = {Terminator::Kind::kJump, header_b, kNoBlock,
                            kNoVar};

    // Patch the Φs' back-edge inputs with the body-end definitions.
    MITOS_RETURN_IF_ERROR(PatchPhis(header_b, patches));

    env_ = std::move(env_header);
    current_ = after_b;
    return Status::Ok();
  }

  // Fills loop Φs' back-edge inputs from the body-end environment and
  // recomputes their singleton flag now that both inputs are known.
  Status PatchPhis(BlockId block,
                   const std::vector<std::pair<std::string, int>>& patches) {
    for (const auto& [name, index] : patches) {
      StatusOr<VarId> id = Lookup(name);
      if (!id.ok()) return id.status();
      Stmt& phi = Block(block).stmts[static_cast<size_t>(index)];
      phi.inputs[1] = *id;
      program_.vars[static_cast<size_t>(phi.result)].singleton =
          singleton_names_.count(name) > 0 || InputsSingleton(phi.inputs);
    }
    return Status::Ok();
  }

  Status BuildDoWhile(const lang::Stmt& s) {
    int n = ++construct_counter_;
    std::string tag = "do" + std::to_string(n);
    BlockId body_b = NewBlock(tag + "_body");
    BlockId after_b = NewBlock(tag + "_after");

    Block(current_).term = {Terminator::Kind::kJump, body_b, kNoBlock,
                            kNoVar};

    std::set<std::string> assigned;
    CollectAssigned(s.body, &assigned);

    // Φs at the top of the body for loop-carried variables (paper Fig. 3:
    // yesterdayCnts2, day2).
    current_ = body_b;
    std::vector<std::pair<std::string, int>> patches;
    for (const std::string& name : assigned) {
      auto it = env_.find(name);
      if (it == env_.end()) continue;
      patches.emplace_back(name,
                           static_cast<int>(Block(body_b).stmts.size()));
      EmitPhi(name, {it->second, kNoVar});
    }

    MITOS_RETURN_IF_ERROR(BuildStmts(s.body));

    StatusOr<VarId> cond = Lookup(s.expr->var);
    if (!cond.ok()) return cond.status();
    Block(current_).term = {Terminator::Kind::kBranch, body_b, after_b,
                            *cond};

    MITOS_RETURN_IF_ERROR(PatchPhis(body_b, patches));

    // Do-while definitions escape the loop: keep the post-body environment.
    current_ = after_b;
    return Status::Ok();
  }

  Status BuildWriteFile(const lang::Stmt& s) {
    Stmt stmt;
    stmt.op = OpKind::kWriteFile;
    StatusOr<VarId> bag = Lookup(s.expr->var);
    if (!bag.ok()) return bag.status();
    StatusOr<VarId> filename = Lookup(s.filename->var);
    if (!filename.ok()) return filename.status();
    stmt.inputs = {*bag, *filename};
    Emit(std::move(stmt));
    return Status::Ok();
  }

  Status BuildStmt(const lang::Stmt& stmt) {
    switch (stmt.kind) {
      case StmtKind::kAssign:
        return BuildAssign(stmt);
      case StmtKind::kWhile:
        return BuildWhile(stmt);
      case StmtKind::kDoWhile:
        return BuildDoWhile(stmt);
      case StmtKind::kIf:
        return BuildIf(stmt);
      case StmtKind::kWriteFile:
        return BuildWriteFile(stmt);
    }
    return Status::Internal("unknown statement kind");
  }

  const lang::Program& source_;
  const std::set<std::string>& singleton_names_;
  Program program_;
  BlockId current_ = kNoBlock;
  std::map<std::string, VarId> env_;
  std::map<std::string, int> versions_;
  int construct_counter_ = 0;
};

}  // namespace

StatusOr<Program> BuildSsa(const lang::Program& normalized,
                           const std::set<std::string>& singleton_vars) {
  SsaBuilder builder(normalized, singleton_vars);
  return builder.Run();
}

StatusOr<Program> CompileToIr(const lang::Program& program) {
  StatusOr<NormalizeResult> normalized = Normalize(program);
  if (!normalized.ok()) return normalized.status();
  return BuildSsa(normalized->program, normalized->singleton_vars);
}

}  // namespace mitos::ir

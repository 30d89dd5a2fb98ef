// Differential fuzzing: seeded random imperative programs are run through
// the reference interpreter, Mitos (several machine counts and option
// combinations), and the baselines; all file outputs must match as
// multisets.
//
// The generator produces well-typed, guaranteed-terminating programs over
// a small grammar: bounded counter loops (while/do-while, nesting <= 2),
// ifs on counter parity, and a mix of bag operations over two shapes
// (plain int64 bags and (k, v) pair bags), with loop-carried bags and
// joins whose build side may come from an enclosing scope — the exact
// territory of the paper's Challenges 1-3.
#include <algorithm>

#include <gtest/gtest.h>

#include "api/engine.h"
#include "common/rng.h"
#include "lang/builder.h"

namespace mitos::api {
namespace {

using lang::ExprPtr;
using lang::ProgramBuilder;

DatumVector Sorted(DatumVector v) {
  std::sort(v.begin(), v.end(),
            [](const Datum& a, const Datum& b) { return a < b; });
  return v;
}

enum class BagShape { kInt, kPair };

class ProgramGenerator {
 public:
  explicit ProgramGenerator(uint64_t seed) : rng_(seed) {}

  lang::Program Generate() {
    // Seed bags.
    int num_seeds = 2 + static_cast<int>(rng_.NextBelow(2));
    for (int i = 0; i < num_seeds; ++i) {
      std::string name = NewVar();
      BagShape shape = rng_.NextBelow(2) == 0 ? BagShape::kInt
                                              : BagShape::kPair;
      pb_.Assign(name, lang::BagLit(RandomBag(shape)));
      bags_.push_back({name, shape});
    }
    EmitStmts(/*budget=*/6 + static_cast<int>(rng_.NextBelow(6)),
              /*loop_depth=*/0);
    // Write out every live bag so every computation is observable.
    int out = 0;
    for (const auto& [name, shape] : bags_) {
      pb_.WriteFile(lang::Var(name),
                    lang::LitString("out" + std::to_string(out++)));
    }
    return pb_.Build();
  }

 private:
  struct BagVar {
    std::string name;
    BagShape shape;
  };

  std::string NewVar() {
    std::string name = "v";
    name += std::to_string(counter_++);
    return name;
  }

  DatumVector RandomBag(BagShape shape) {
    DatumVector data;
    size_t n = 1 + rng_.NextBelow(40);
    for (size_t i = 0; i < n; ++i) {
      int64_t k = static_cast<int64_t>(rng_.NextBelow(12));
      if (shape == BagShape::kInt) {
        data.push_back(Datum::Int64(k));
      } else {
        data.push_back(Datum::Pair(
            Datum::Int64(k),
            Datum::Int64(static_cast<int64_t>(rng_.NextBelow(100)))));
      }
    }
    return data;
  }

  const BagVar& RandomBagVar() {
    return bags_[rng_.NextBelow(bags_.size())];
  }

  // Picks a bag of the wanted shape, or derives one from an existing bag.
  std::string BagOfShape(BagShape want) {
    std::vector<const BagVar*> candidates;
    for (const BagVar& b : bags_) {
      if (b.shape == want) candidates.push_back(&b);
    }
    if (!candidates.empty()) {
      return candidates[rng_.NextBelow(candidates.size())]->name;
    }
    // Convert a random bag into the wanted shape.
    const BagVar& src = RandomBagVar();
    std::string name = NewVar();
    if (want == BagShape::kPair) {
      ExprPtr in = lang::Var(src.name);
      if (src.shape == BagShape::kPair) {
        in = lang::Map(in, lang::fns::Field(0));
      }
      pb_.Assign(name, lang::Map(in, lang::fns::PairWithOne()));
    } else {
      ExprPtr in = lang::Var(src.name);
      if (src.shape == BagShape::kPair) {
        pb_.Assign(name, lang::Map(in, lang::fns::Field(1)));
      } else {
        pb_.Assign(name, lang::Map(in, lang::fns::AddInt64(1)));
      }
    }
    bags_.push_back({name, want});
    return name;
  }

  void EmitBagStmt() {
    switch (rng_.NextBelow(9)) {
      case 0: {  // int map
        std::string in = BagOfShape(BagShape::kInt);
        std::string name = NewVar();
        pb_.Assign(name, lang::Map(lang::Var(in), lang::fns::AddInt64(
                                                      rng_.NextInRange(-3,
                                                                       3))));
        bags_.push_back({name, BagShape::kInt});
        break;
      }
      case 1: {  // filter
        std::string in = BagOfShape(BagShape::kInt);
        std::string name = NewVar();
        pb_.Assign(name,
                   lang::Filter(lang::Var(in),
                                lang::fns::ModEquals(
                                    2 + rng_.NextInRange(0, 2),
                                    0)));
        bags_.push_back({name, BagShape::kInt});
        break;
      }
      case 2: {  // pair from int
        std::string in = BagOfShape(BagShape::kInt);
        std::string name = NewVar();
        pb_.Assign(name, lang::Map(lang::Var(in), lang::fns::PairWithOne()));
        bags_.push_back({name, BagShape::kPair});
        break;
      }
      case 3: {  // reduceByKey
        std::string in = BagOfShape(BagShape::kPair);
        std::string name = NewVar();
        pb_.Assign(name, lang::ReduceByKey(lang::Var(in),
                                           lang::fns::SumInt64()));
        bags_.push_back({name, BagShape::kPair});
        break;
      }
      case 4: {  // join two pair bags, project back to a pair
        std::string build = BagOfShape(BagShape::kPair);
        std::string probe = BagOfShape(BagShape::kPair);
        std::string name = NewVar();
        pb_.Assign(name,
                   lang::Map(lang::Join(lang::Var(build), lang::Var(probe)),
                             {"sumJoin", [](const Datum& t) {
                                return Datum::Pair(
                                    t.field(0),
                                    Datum::Int64(t.field(1).int64() +
                                                 t.field(2).int64()));
                              }}));
        bags_.push_back({name, BagShape::kPair});
        break;
      }
      case 5: {  // union (same shape)
        BagShape shape = rng_.NextBelow(2) == 0 ? BagShape::kInt
                                                : BagShape::kPair;
        std::string a = BagOfShape(shape);
        std::string b = BagOfShape(shape);
        std::string name = NewVar();
        pb_.Assign(name, lang::Union(lang::Var(a), lang::Var(b)));
        bags_.push_back({name, shape});
        break;
      }
      case 6: {  // distinct
        std::string in = BagOfShape(BagShape::kInt);
        std::string name = NewVar();
        pb_.Assign(name, lang::Distinct(lang::Var(in)));
        bags_.push_back({name, BagShape::kInt});
        break;
      }
      case 7: {  // values of pairs
        std::string in = BagOfShape(BagShape::kPair);
        std::string name = NewVar();
        pb_.Assign(name, lang::Map(lang::Var(in), lang::fns::Field(1)));
        bags_.push_back({name, BagShape::kInt});
        break;
      }
      case 8: {  // copy (tests identity materialization + loop carry)
        const BagVar& src = RandomBagVar();
        std::string name = NewVar();
        pb_.Assign(name, lang::Var(src.name));
        bags_.push_back({name, src.shape});
        break;
      }
    }
  }

  void EmitStmts(int budget, int loop_depth) {
    while (budget-- > 0) {
      uint64_t pick = rng_.NextBelow(10);
      if (pick < 6 || loop_depth >= 2) {
        EmitBagStmt();
      } else if (pick < 8) {
        EmitLoop(loop_depth);
      } else {
        EmitIf(loop_depth);
      }
    }
  }

  void EmitLoop(int loop_depth) {
    std::string counter = NewVar();
    int64_t iterations = static_cast<int64_t>(rng_.NextBelow(4));
    pb_.Assign(counter, lang::LitInt(0));
    size_t scope = bags_.size();
    auto body = [&] {
      // Reassign an existing bag inside the loop so it is loop-carried.
      EmitStmts(1 + static_cast<int>(rng_.NextBelow(3)), loop_depth + 1);
      ReassignExistingBag(scope);
      pb_.Assign(counter, lang::Add(lang::Var(counter), lang::LitInt(1)));
    };
    if (rng_.NextBelow(2) == 0) {
      pb_.While(lang::Lt(lang::Var(counter), lang::LitInt(iterations)), body);
      // A while body may run zero times: its definitions do not escape.
      bags_.resize(scope);
    } else {
      pb_.DoWhile(body,
                  lang::Lt(lang::Var(counter), lang::LitInt(iterations)));
      // Do-while definitions escape (the body runs at least once).
    }
  }

  void EmitIf(int loop_depth) {
    std::string flag = NewVar();
    pb_.Assign(flag, lang::LitInt(rng_.NextInRange(0, 1)));
    size_t scope = bags_.size();
    auto then_body = [&] {
      EmitStmts(1 + static_cast<int>(rng_.NextBelow(2)), loop_depth + 1);
      ReassignExistingBag(scope);
    };
    if (rng_.NextBelow(2) == 0) {
      pb_.If(lang::Eq(lang::Var(flag), lang::LitInt(1)), then_body);
    } else {
      pb_.If(lang::Eq(lang::Var(flag), lang::LitInt(1)), then_body,
             [&] { ReassignExistingBag(scope); });
    }
    // Branch-local definitions do not escape the if.
    bags_.resize(scope);
  }

  // x = x.map(...) for a bag existing OUTSIDE the current scope: creates
  // Φs at loop heads and if joins.
  void ReassignExistingBag(size_t scope) {
    MITOS_CHECK_GT(scope, 0u);
    const BagVar& target = bags_[rng_.NextBelow(scope)];
    if (target.shape == BagShape::kInt) {
      pb_.Assign(target.name, lang::Map(lang::Var(target.name),
                                        lang::fns::AddInt64(1)));
    } else {
      pb_.Assign(target.name, lang::ReduceByKey(lang::Var(target.name),
                                                lang::fns::SumInt64()));
    }
  }

  ProgramBuilder pb_;
  std::vector<BagVar> bags_;
  Rng rng_;
  int counter_ = 0;
};

class RandomProgramTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomProgramTest, AllEnginesMatchReference) {
  uint64_t seed = static_cast<uint64_t>(GetParam());
  ProgramGenerator generator(seed);
  lang::Program program = generator.Generate();

  sim::SimFileSystem fs_ref;
  auto ref = ::mitos::api::Run(EngineKind::kReference, program, &fs_ref);
  ASSERT_TRUE(ref.ok()) << "seed " << seed << ": "
                        << ref.status().ToString() << "\n"
                        << lang::ToSource(program);

  struct Variant {
    EngineKind engine;
    int machines;
  };
  std::vector<Variant> variants = {
      {EngineKind::kMitos, 1},
      {EngineKind::kMitos, 3},
      {EngineKind::kMitos, 7},
      {EngineKind::kMitosNoPipelining, 3},
      {EngineKind::kMitosNoHoisting, 3},
      {EngineKind::kFlink, 3},
      {EngineKind::kSpark, 3},
  };
  for (const Variant& v : variants) {
    sim::SimFileSystem fs;
    auto result = ::mitos::api::Run(
        v.engine, program, &fs, {.machines = v.machines});
    ASSERT_TRUE(result.ok())
        << "seed " << seed << " " << EngineKindName(v.engine) << "@"
        << v.machines << ": " << result.status().ToString() << "\n"
        << lang::ToSource(program);
    ASSERT_EQ(fs_ref.ListFiles(), fs.ListFiles())
        << "seed " << seed << " " << EngineKindName(v.engine);
    for (const std::string& name : fs_ref.ListFiles()) {
      ASSERT_EQ(Sorted(*fs_ref.Read(name)), Sorted(*fs.Read(name)))
          << "seed " << seed << " " << EngineKindName(v.engine) << "@"
          << v.machines << " differs in " << name << "\nprogram:\n"
          << lang::ToSource(program);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProgramTest,
                         ::testing::Range(0, 40));

}  // namespace
}  // namespace mitos::api

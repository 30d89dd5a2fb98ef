#include "workloads/programs.h"

#include <cmath>

#include "common/logging.h"
#include "lang/builder.h"

namespace mitos::workloads {

namespace {

using lang::Add;
using lang::Concat;
using lang::LitInt;
using lang::LitString;
using lang::ProgramBuilder;
using lang::Var;
namespace fns = lang::fns;

}  // namespace

lang::Program VisitCountProgram(const VisitCountOptions& options) {
  MITOS_CHECK_GT(options.days, 0);
  ProgramBuilder pb;
  if (options.with_page_types) {
    pb.Assign("pageTypes", lang::ReadFile(LitString(options.page_types_file)));
  }
  if (options.with_diffs) {
    pb.Assign("yesterdayCounts", lang::BagLit({}));
  }
  pb.Assign("day", LitInt(1));
  pb.DoWhile(
      [&] {
        pb.Assign("visits",
                  lang::ReadFile(Concat(LitString(options.log_prefix),
                                        Var("day"))));
        if (options.with_page_types) {
          // (visits join pageTypes).filter(type == 0): the pageTypes bag is
          // the loop-invariant build side (paper Sec. 2 / 5.3).
          pb.Assign("keyedVisits",
                    lang::Map(Var("visits"), fns::PairWithOne()));
          pb.Assign("taggedVisits",
                    lang::Join(Var("pageTypes"), Var("keyedVisits")));
          // (page, type, 1) -> keep type 0, rebuild (page, 1).
          pb.Assign("filteredVisits",
                    lang::Filter(Var("taggedVisits"),
                                 fns::FieldEquals(1, 0)));
          pb.Assign("visitPairs",
                    lang::Map(Var("filteredVisits"),
                              {"dropType", [](const Datum& t) {
                                 return Datum::Pair(t.field(0), t.field(2));
                               }}));
        } else {
          pb.Assign("visitPairs", lang::Map(Var("visits"),
                                            fns::PairWithOne()));
        }
        pb.Assign("counts",
                  lang::ReduceByKey(Var("visitPairs"), fns::SumInt64()));
        if (options.with_diffs) {
          pb.If(lang::Ne(Var("day"), LitInt(1)), [&] {
            pb.Assign("joinedYesterday",
                      lang::Join(Var("yesterdayCounts"), Var("counts")));
            pb.Assign("diffs", lang::Map(Var("joinedYesterday"),
                                         fns::AbsDiff()));
            pb.Assign("summed",
                      lang::Reduce(Var("diffs"), fns::SumInt64()));
            pb.WriteFile(Var("summed"),
                         Concat(LitString(options.out_prefix), Var("day")));
          });
          pb.Assign("yesterdayCounts", Var("counts"));
        } else {
          pb.WriteFile(Var("counts"),
                       Concat(LitString(options.out_prefix), Var("day")));
        }
        pb.Assign("day", Add(Var("day"), LitInt(1)));
      },
      lang::Le(Var("day"), LitInt(options.days)));
  return pb.Build();
}

lang::Program StepOverheadProgram(int steps) {
  MITOS_CHECK_GT(steps, 0);
  ProgramBuilder pb;
  // One tiny bag operation per step, with the loop condition depending on
  // the bag: the work is negligible, so the marginal time per step is the
  // per-iteration coordination overhead (Fig. 7). Keeping the loop state in
  // a bag (not a driver scalar) is what forces systems without native
  // iterations to pay a job launch per step — Spark must collect() the
  // state to evaluate the condition.
  pb.Assign("state", lang::BagLit({Datum::Int64(0)}));
  pb.While(lang::Lt(lang::ScalarFromBag(Var("state")), LitInt(steps)), [&] {
    pb.Assign("state", lang::Map(Var("state"), fns::AddInt64(1)));
  });
  pb.WriteFile(Var("state"), LitString("steps_done"));
  return pb.Build();
}

lang::Program PageRankProgram(const PageRankOptions& options) {
  MITOS_CHECK_GT(options.num_vertices, 0);
  const double n = static_cast<double>(options.num_vertices);
  const double base = (1.0 - options.damping) / n;
  const double damping = options.damping;

  ProgramBuilder pb;
  pb.Assign("vertices", lang::ReadFile(LitString("vertices")));
  pb.Assign("edges", lang::ReadFile(LitString("edges")));
  // Out-degrees: (src, deg).
  pb.Assign("degrees",
            lang::ReduceByKey(lang::Map(Var("edges"),
                                        {"srcOne", [](const Datum& e) {
                                           return Datum::Pair(e.field(0),
                                                              Datum::Int64(1));
                                         }}),
                              fns::SumInt64()));
  // (src, deg, dst) -> (src, (dst, 1/deg)): loop-invariant adjacency with
  // contribution weights.
  pb.Assign("adjacency",
            lang::Map(lang::Join(Var("degrees"), Var("edges")),
                      {"withInvDeg", [](const Datum& t) {
                         double inv =
                             1.0 / static_cast<double>(t.field(1).int64());
                         return Datum::Pair(
                             t.field(0),
                             Datum::Pair(t.field(2), Datum::Double(inv)));
                       }}));
  // (v, 0.0) for every vertex so pages without in-links keep a rank.
  pb.Assign("zeroRanks", lang::Map(Var("vertices"),
                                   {"zeroRank", [](const Datum& v) {
                                      return Datum::Pair(v, Datum::Double(0));
                                    }}));
  pb.Assign("ranks", lang::Map(Var("vertices"),
                               {"initRank", [n](const Datum& v) {
                                  return Datum::Pair(v,
                                                     Datum::Double(1.0 / n));
                                }}));
  pb.Assign("iter", LitInt(0));
  const bool until_convergence = options.convergence_epsilon > 0;
  if (until_convergence) {
    pb.Assign("delta", lang::LitDouble(1.0));  // enter the loop
  }
  lang::ExprPtr condition =
      until_convergence
          ? lang::And(lang::Gt(Var("delta"),
                               lang::LitDouble(options.convergence_epsilon)),
                      lang::Lt(Var("iter"), LitInt(options.iterations)))
          : lang::Lt(Var("iter"), LitInt(options.iterations));
  pb.While(condition, [&] {
    // Join the invariant adjacency (build side, hoisted) with the current
    // ranks: (src, (dst, w), rank) -> (dst, rank * w).
    pb.Assign("contribs",
              lang::Map(lang::Join(Var("adjacency"), Var("ranks")),
                        {"contrib", [](const Datum& t) {
                           const Datum& dw = t.field(1);
                           double c = t.field(2).dbl() * dw.field(1).dbl();
                           return Datum::Pair(dw.field(0), Datum::Double(c));
                         }}));
    pb.Assign("summedContribs",
              lang::ReduceByKey(lang::Union(Var("contribs"), Var("zeroRanks")),
                                fns::SumDouble()));
    pb.Assign("newRanks",
              lang::Map(Var("summedContribs"),
                        {"applyDamping", [base, damping](const Datum& p) {
                           return Datum::Pair(
                               p.field(0),
                               Datum::Double(base +
                                             damping * p.field(1).dbl()));
                         }}));
    if (until_convergence) {
      // Summed absolute rank movement: the convergence criterion.
      pb.Assign("movement",
                lang::Map(lang::Join(Var("ranks"), Var("newRanks")),
                          {"absDelta", [](const Datum& t) {
                             double d = t.field(1).dbl() - t.field(2).dbl();
                             return Datum::Double(d < 0 ? -d : d);
                           }}));
      pb.Assign("delta",
                lang::ScalarFromBag(lang::Reduce(
                    lang::Union(Var("movement"),
                                lang::BagLit({Datum::Double(0)})),
                    fns::SumDouble())));
    }
    pb.Assign("ranks", Var("newRanks"));
    pb.Assign("iter", Add(Var("iter"), LitInt(1)));
  });
  pb.WriteFile(Var("ranks"), LitString("ranks"));
  return pb.Build();
}

lang::Program KMeansProgram(const KMeansOptions& options) {
  ProgramBuilder pb;
  // Points keyed by a constant so a hash join emulates the broadcast of
  // centroids to every point: the (large) point set is the loop-invariant
  // build side and stays hoisted across iterations.
  pb.Assign("points", lang::ReadFile(LitString("points")));
  pb.Assign("keyedPoints", lang::Map(Var("points"),
                                     {"key0", [](const Datum& p) {
                                        return Datum::Pair(Datum::Int64(0), p);
                                      }}));
  pb.Assign("centroids", lang::ReadFile(LitString("centroids")));
  pb.Assign("iter", LitInt(0));
  pb.While(lang::Lt(Var("iter"), LitInt(options.iterations)), [&] {
    pb.Assign("keyedCentroids", lang::Map(Var("centroids"),
                                          {"key0", [](const Datum& c) {
                                             return Datum::Pair(
                                                 Datum::Int64(0), c);
                                           }}));
    // (0, point, centroid) for every pair.
    pb.Assign("pairs", lang::Join(Var("keyedPoints"),
                                  Var("keyedCentroids")));
    // (pid, (dist, cid, px, py)).
    pb.Assign("assignments",
              lang::Map(Var("pairs"), {"distance", [](const Datum& t) {
                          const Datum& p = t.field(1);
                          const Datum& c = t.field(2);
                          double dx = p.field(1).dbl() - c.field(1).dbl();
                          double dy = p.field(2).dbl() - c.field(2).dbl();
                          return Datum::Pair(
                              p.field(0),
                              Datum::Tuple({Datum::Double(dx * dx + dy * dy),
                                            c.field(0), p.field(1),
                                            p.field(2)}));
                        }}));
    pb.Assign("best",
              lang::ReduceByKey(Var("assignments"),
                                {"minByDist", [](const Datum& a,
                                                 const Datum& b) {
                                   return a.field(0).dbl() <=
                                                  b.field(0).dbl()
                                              ? a
                                              : b;
                                 }}));
    // (cid, (sum_x, sum_y, count)).
    pb.Assign("clusterSums",
              lang::ReduceByKey(
                  lang::Map(Var("best"),
                            {"toClusterTriple", [](const Datum& p) {
                               const Datum& v = p.field(1);
                               return Datum::Pair(
                                   v.field(1),
                                   Datum::Tuple({v.field(2), v.field(3),
                                                 Datum::Int64(1)}));
                             }}),
                  {"sumTriples", [](const Datum& a, const Datum& b) {
                     return Datum::Tuple(
                         {Datum::Double(a.field(0).dbl() + b.field(0).dbl()),
                          Datum::Double(a.field(1).dbl() + b.field(1).dbl()),
                          Datum::Int64(a.field(2).int64() +
                                       b.field(2).int64())});
                   }}));
    pb.Assign("centroids",
              lang::Map(Var("clusterSums"), {"average", [](const Datum& p) {
                          const Datum& s = p.field(1);
                          double cnt =
                              static_cast<double>(s.field(2).int64());
                          return Datum::Tuple(
                              {p.field(0),
                               Datum::Double(s.field(0).dbl() / cnt),
                               Datum::Double(s.field(1).dbl() / cnt)});
                        }}));
    pb.Assign("iter", Add(Var("iter"), LitInt(1)));
  });
  pb.WriteFile(Var("centroids"), LitString("centroids_out"));
  return pb.Build();
}

lang::Program ConnectedComponentsProgram() {
  ProgramBuilder pb;
  pb.Assign("vertices", lang::ReadFile(LitString("vertices")));
  pb.Assign("edges", lang::ReadFile(LitString("edges")));
  // Undirected adjacency: both directions of every edge. Loop-invariant.
  pb.Assign("adjacency",
            lang::FlatMap(Var("edges"), {"bothDirections", [](const Datum& e) {
                            return DatumVector{
                                Datum::Pair(e.field(0), e.field(1)),
                                Datum::Pair(e.field(1), e.field(0))};
                          }}));
  // Every vertex starts in its own component.
  pb.Assign("labels", lang::Map(Var("vertices"), {"selfLabel",
                                                  [](const Datum& v) {
                                                    return Datum::Pair(v, v);
                                                  }}));
  pb.Assign("changes", lang::BagLit({Datum::Int64(1)}));  // enter the loop
  pb.While(lang::Gt(lang::ScalarFromBag(Var("changes")), LitInt(0)), [&] {
    // Propagate labels along edges: (v, neighbor, label) -> (neighbor,
    // label). The adjacency is the hoisted build side.
    pb.Assign("messages",
              lang::Map(lang::Join(Var("adjacency"), Var("labels")),
                        {"toNeighbor", [](const Datum& t) {
                           return Datum::Pair(t.field(1), t.field(2));
                         }}));
    pb.Assign("newLabels",
              lang::ReduceByKey(lang::Union(Var("messages"), Var("labels")),
                                fns::MinInt64()));
    // Count label changes to decide convergence: (v, old, new).
    pb.Assign("diffs",
              lang::Filter(lang::Join(Var("labels"), Var("newLabels")),
                           {"changed", [](const Datum& t) {
                              return !(t.field(1) == t.field(2));
                            }}));
    pb.Assign("changes", lang::Count(Var("diffs")));
    pb.Assign("labels", Var("newLabels"));
  });
  pb.WriteFile(Var("labels"), LitString("components"));
  return pb.Build();
}

}  // namespace mitos::workloads

//===-- tests/exec/StepGraphTest.cpp - Step-graph capture/replay ---------===//
//
// Part of the hichi-boris-dpcpp-repro project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The StepGraph contract at the exec layer: capture through the
/// GraphCapture decorator records node specs and dependency edges with
/// full fidelity (and the capture step still executes normally); replay
/// re-issues the DAG with only the ParamBlock rebound, without counting
/// new launches or building new specs; events from outside the capture
/// are external inputs with no edge; clear() invalidates so a driver
/// can recapture after a shape change — including when the data buffers
/// were reallocated, since recapture re-reads the new pointers.
///
//===----------------------------------------------------------------------===//

#include "exec/BackendRegistry.h"
#include "exec/StepGraph.h"
#include "minisycl/minisycl.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

using namespace hichi;
using namespace hichi::exec;

namespace {

/// Harness: a backend (plus queue when it needs one), a graph and its
/// capturing wrapper, and a kernel cache giving bodies stable addresses
/// across the graph's lifetime.
struct GraphHarness {
  explicit GraphHarness(const std::string &BackendName, int Threads = 2) {
    Backend = createBackend(BackendName, {Threads, /*Grain=*/0});
    if (Backend->needsQueue())
      Queue = std::make_unique<minisycl::queue>(minisycl::cpu_device());
    Ctx.Queue = Queue.get();
    Capture = std::make_unique<GraphCapture>(*Backend, Graph);
  }

  std::unique_ptr<ExecutionBackend> Backend;
  std::unique_ptr<minisycl::queue> Queue;
  ExecutionContext Ctx;
  StepGraph Graph;
  std::unique_ptr<GraphCapture> Capture;
  KernelCache Cache;
  RunStats Stats;
};

/// Three-node chain over \p Data through the harness's capture wrapper:
/// fill(i) -> add Scalars[0] -> scale by 2, each gated on the previous
/// node's event. The arithmetic is order-sensitive, so a replay that
/// broke the captured edges would change the result.
void captureChain(GraphHarness &H, double *Data, Index N) {
  const ParamBlock *Params = &H.Graph.params();
  ExecEvent Filled = submitCachedLaunch(
      *H.Capture, H.Ctx, H.Stats, N, 0,
      [Data](Index Begin, Index End, int, int) {
        for (Index I = Begin; I < End; ++I)
          Data[I] = double(I);
      },
      {}, H.Cache);
  ExecEvent Added = submitCachedLaunch(
      *H.Capture, H.Ctx, H.Stats, N, 0,
      [Data, Params](Index Begin, Index End, int, int) {
        for (Index I = Begin; I < End; ++I)
          Data[I] += Params->Scalars[0];
      },
      {Filled}, H.Cache);
  ExecEvent Scaled = submitCachedLaunch(
      *H.Capture, H.Ctx, H.Stats, N, 0,
      [Data](Index Begin, Index End, int, int) {
        for (Index I = Begin; I < End; ++I)
          Data[I] *= 2.0;
      },
      {Added}, H.Cache);
  Scaled.wait();
  Added.wait();
  Filled.wait();
}

TEST(StepGraphTest, CaptureRecordsNodesEdgesAndExecutes) {
  GraphHarness H("serial");
  const Index N = 64;
  std::vector<double> Data(std::size_t(N), -1.0);
  H.Graph.params().Scalars[0] = 10.0;
  captureChain(H, Data.data(), N);

  // The capture step executed normally...
  for (Index I = 0; I < N; ++I)
    EXPECT_EQ(Data[std::size_t(I)], 2.0 * (double(I) + 10.0)) << I;
  EXPECT_EQ(H.Stats.Launches, 3);
  EXPECT_EQ(H.Stats.SpecsBuilt, 3);

  // ...and the graph learned the DAG with full fidelity: three nodes in
  // submission order, a chain of two edges, the captured items and the
  // wrapped backend on every node.
  ASSERT_EQ(H.Graph.nodeCount(), 3u);
  EXPECT_EQ(H.Graph.edgeCount(), 2u);
  EXPECT_TRUE(H.Graph.node(0).Deps.empty());
  EXPECT_EQ(H.Graph.node(1).Deps, std::vector<int>{0});
  EXPECT_EQ(H.Graph.node(2).Deps, std::vector<int>{1});
  for (std::size_t I = 0; I < 3; ++I) {
    EXPECT_EQ(H.Graph.node(I).Items, N);
    EXPECT_EQ(H.Graph.node(I).Backend, H.Backend.get());
    EXPECT_NE(H.Graph.node(I).KernelType, nullptr);
  }
  // The three chain bodies are distinct lambda types.
  EXPECT_NE(H.Graph.node(0).KernelType, H.Graph.node(1).KernelType);
  EXPECT_NE(H.Graph.node(1).KernelType, H.Graph.node(2).KernelType);
}

TEST(StepGraphTest, ExternalEventsCarryNoEdge) {
  GraphHarness H("serial");
  // A dependency produced by the *base* backend directly was never
  // recorded, so it is an external input: honored at execution time but
  // not an edge of the graph.
  int Marker = 0;
  ExecEvent External = submitCachedLaunch(
      *H.Backend, H.Ctx, H.Stats, 1, 0,
      [&Marker](Index, Index, int, int) { Marker = 1; }, {}, H.Cache);
  ExecEvent Inside = submitCachedLaunch(
      *H.Capture, H.Ctx, H.Stats, 1, 0,
      [&Marker](Index, Index, int, int) { Marker += 10; }, {External},
      H.Cache);
  Inside.wait();
  EXPECT_EQ(Marker, 11);
  ASSERT_EQ(H.Graph.nodeCount(), 1u);
  EXPECT_EQ(H.Graph.edgeCount(), 0u);
}

TEST(StepGraphTest, EmptyGraphDoesNotInstantiate) {
  StepGraph Graph;
  EXPECT_FALSE(Graph.instantiate());
  EXPECT_FALSE(Graph.instantiated());
}

TEST(StepGraphTest, ReplayRebindsParamsWithoutCountingLaunches) {
  GraphHarness H("serial");
  const Index N = 32;
  std::vector<double> Data(std::size_t(N), 0.0);
  H.Graph.params().StepIndex = 0;
  H.Graph.params().Scalars[0] = 1.0;
  captureChain(H, Data.data(), N);
  ASSERT_TRUE(H.Graph.instantiate());
  ASSERT_TRUE(H.Graph.instantiated());

  const long long CapturedLaunches = H.Stats.Launches;
  const long long CapturedSpecs = H.Stats.SpecsBuilt;

  // Replays re-execute the whole chain with only the ParamBlock
  // rebound; the launch ledger stays flat (a replay is one graph issue,
  // not N counted launches) while SubmitNs keeps accruing re-issue cost.
  for (int Step = 1; Step <= 3; ++Step) {
    H.Graph.params().StepIndex = Step;
    H.Graph.params().Scalars[0] = double(Step * 100);
    H.Graph.replay(H.Ctx);
    for (Index I = 0; I < N; ++I)
      EXPECT_EQ(Data[std::size_t(I)], 2.0 * (double(I) + double(Step * 100)))
          << "step " << Step << " item " << I;
  }
  EXPECT_EQ(H.Stats.Launches, CapturedLaunches);
  EXPECT_EQ(H.Stats.SpecsBuilt, CapturedSpecs);

  // Captured step ranges are immutable (replay rebases working copies).
  EXPECT_EQ(H.Graph.node(0).StepBegin, 0);
  EXPECT_EQ(H.Graph.node(0).StepEnd, 1);
}

TEST(StepGraphTest, ReplayMatchesResubmissionOnEveryBackend) {
  for (const std::string &Name :
       {std::string("serial"), std::string("openmp"), std::string("dpcpp"),
        std::string("dpcpp-numa"), std::string("sharded")}) {
    GraphHarness H(Name, /*Threads=*/3);
    const Index N = 257; // ragged across any worker/shard split
    std::vector<double> Data(std::size_t(N), 0.0);
    H.Graph.params().Scalars[0] = 5.0;
    captureChain(H, Data.data(), N);
    ASSERT_TRUE(H.Graph.instantiate()) << Name;

    H.Graph.params().Scalars[0] = 7.0;
    H.Graph.replay(H.Ctx);
    for (Index I = 0; I < N; ++I)
      EXPECT_EQ(Data[std::size_t(I)], 2.0 * (double(I) + 7.0))
          << Name << " item " << I;
  }
}

TEST(StepGraphTest, ClearInvalidatesAndRecaptureRebindsNewBuffers) {
  GraphHarness H("serial");
  Index N = 16;
  auto Data = std::make_unique<std::vector<double>>(std::size_t(N), 0.0);
  H.Graph.params().Scalars[0] = 3.0;
  captureChain(H, Data->data(), N);
  ASSERT_TRUE(H.Graph.instantiate());

  // Shape change: the buffer is reallocated (different size *and*
  // address — the captured pointers are stale). The driver contract is
  // clear() + recapture, which re-reads everything.
  N = 48;
  Data = std::make_unique<std::vector<double>>(std::size_t(N), 0.0);
  H.Graph.clear();
  EXPECT_FALSE(H.Graph.instantiated());
  EXPECT_EQ(H.Graph.nodeCount(), 0u);

  H.Cache.rewind(); // same kernel sequence, slots reused in place
  captureChain(H, Data->data(), N);
  ASSERT_TRUE(H.Graph.instantiate());
  ASSERT_EQ(H.Graph.nodeCount(), 3u);
  EXPECT_EQ(H.Graph.node(0).Items, N);

  H.Graph.params().Scalars[0] = 4.0;
  H.Graph.replay(H.Ctx);
  for (Index I = 0; I < N; ++I)
    EXPECT_EQ((*Data)[std::size_t(I)], 2.0 * (double(I) + 4.0)) << I;
}

} // namespace

//===-- pic/PicSimulation.h - The full PIC loop -----------------*- C++ -*-===//
//
// Part of the hichi-boris-dpcpp-repro project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The self-consistent Particle-in-Cell loop (paper Section 2): per step,
///
///   1. interpolate grid fields to particles (form factor),
///   2. push particles (Boris method — the paper's kernel),
///   3. deposit particle currents to the grid (Esirkepov,
///      charge-conserving),
///   4. advance Maxwell's equations (FDTD on the Yee grid, or the
///      spectral solver),
///
/// with periodic boundaries for particles and fields. Stages 1+2 run as
/// one independent-particle kernel, stage 3 as a tiled read-modify-write
/// kernel, and stage 4 as x-slab halo-exchange tiles (FDTD) or k-space
/// line/row launches (spectral) — each stage on its own configurable
/// execution backend (PicOptions::PushBackend / DepositBackend /
/// FieldBackend) — see docs/ARCHITECTURE.md for the full
/// stage-to-backend map. This is the substrate the standalone pusher
/// benchmarks carve their kernel out of.
///
/// Every step mode issues one step body: an explicit-edge launch DAG of
/// the J clear, the stage-1 push (which also wraps the moved positions
/// back into the box), the tile binning, the deposit chain and the
/// field chain. A classic step submits it to
/// the stage backends directly; a step-graph capture submits the same
/// DAG through recording wrappers and replays it on later steps. The
/// edges carry every ordering the step needs, so no host code has to
/// stand between the stages. The field solve's first launch that reads
/// J (the FDTD E advance / the spectral gather) depends on the deposit
/// reduction, so on asynchronous backends the first FDTD half-step
/// overlaps the reduction, while the per-node operation order, and
/// hence the state hash, stays bit-identical to the all-serial loop.
///
//===----------------------------------------------------------------------===//

#ifndef HICHI_PIC_PICSIMULATION_H
#define HICHI_PIC_PICSIMULATION_H

#include "core/Checkpoint.h"
#include "core/Core.h"
#include "core/EnsembleOps.h"
#include "exec/Autotuner.h"
#include "exec/BackendRegistry.h"
#include "exec/ShardedBackend.h"
#include "exec/SlabPartition.h"
#include "exec/StepGraph.h"
#include "pic/AbsorbingBoundary.h"
#include "pic/CurrentDeposition.h"
#include "pic/FdtdSolver.h"
#include "pic/FieldInterpolator.h"
#include "pic/ParticleSorter.h"
#include "pic/Rebalancer.h"
#include "pic/SpectralSolver.h"
#include "pic/TiledCurrentAccumulator.h"
#include "pic/YeeGrid.h"
#include "support/Timer.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace hichi {
namespace pic {

/// Which Maxwell solver advances the grid fields (paper Section 2:
/// "These equations can be solved using FDTD or FFT-based techniques").
enum class FieldSolverKind {
  Fdtd,     ///< staggered Yee leapfrog; Courant-limited dt
  Spectral, ///< FFT/PSATD; exact per mode, needs power-of-two extents
};

/// Moving-window configuration (the paper's laser–plasma pulse-tracking
/// use case): the window slides along +x at Speed * c, retiring
/// particles the trailing edge passes and injecting fresh plasma into
/// the planes the leading edge uncovers. The shift trigger is a pure
/// function of the accumulated simulation time — floor(Speed * c * t /
/// dx) planes are due after time t — so every backend shifts on the
/// same steps by the same plane counts and moving-window runs stay
/// bit-comparable across backends, layouts and shard counts. Injected
/// particles replicate appendColdBeam's deterministic placement in
/// *global* plane coordinates, so a window run's fresh plasma is
/// record-identical to what a big fixed domain would have seeded there.
/// FDTD only: the spectral solver's global FFTs cannot address a ring
/// window and the constructor rejects the combination.
template <typename Real> struct MovingWindowOptions {
  bool Enabled = false;
  Real Speed = Real(1);   ///< window speed in units of the light velocity
  int InjectPerCell = 0;  ///< leading-edge particles per cell (0 = vacuum)
  short InjectType = 0;   ///< species of the injected plasma
  Real InjectWeight = Real(0); ///< statistical weight per injected particle
  Real InjectVx = Real(0);     ///< injection drift velocity along x

  /// Second co-located species emitted record-adjacent to every
  /// injected particle (-1 = none): the drifting-slab pair idiom, so a
  /// neutral plasma injects as electron–positron pairs whose current
  /// contributions cancel bitwise until a field separates them.
  short InjectPairType = -1;

  /// Density profile n(x)/n0 sampled at each uncovered plane's center
  /// (global x): the per-plane count is lround(InjectPerCell * profile),
  /// matching appendDensityRampX's rounding. Null = uniform (factor 1).
  std::function<Real(Real)> DensityProfile;
};

/// Configuration of a PIC run.
template <typename Real> struct PicOptions {
  Real TimeStep = Real(0);       ///< 0 = half the Courant limit
  Real LightVelocity = Real(constants::LightVelocity);
  int SortEveryNSteps = 50;      ///< 0 disables the locality sort
  bool ChargeConserving = true;  ///< Esirkepov vs direct deposition
  FieldSolverKind Solver = FieldSolverKind::Fdtd;

  /// Execution backend (exec registry name) for the interpolate+push
  /// stage. Particles are independent during the push, so any registered
  /// backend gives bit-identical results. The stage runs as one fused
  /// interpolate+push launch, or — on the "sharded" backend — as one
  /// precalc→push launch pair per shard, routed to the shard's lane.
  std::string PushBackend = "serial";

  /// Worker threads for the push stage; 0 means all (for "sharded": the
  /// shard count, default 4).
  int PushThreads = 0;

  /// Execution backend for the current-deposition stage. The scatter
  /// couples particles through the grid, so it runs as per-tile
  /// read-modify-write blocks with a fixed-order reduction
  /// (TiledCurrentAccumulator); results are bit-identical to the serial
  /// scatter for every backend, thread count and tile count.
  std::string DepositBackend = "serial";

  /// Worker threads for the deposit stage; 0 means all.
  int DepositThreads = 0;

  /// Current tiles (x-slabs) for the deposit stage; 0 = auto (1 for the
  /// serial backend, else two tiles per worker, capped at the grid's Nx).
  int DepositTiles = 0;

  /// Execution backend for the Maxwell field-solve stage. The FDTD
  /// advance runs as x-slab tiles with a one-plane halo exchange per
  /// face, the spectral solver as k-space line/row launches; both are
  /// bit-identical to the serial solver for every backend, thread count
  /// and tile count. Asynchronous backends event-chain the solve against
  /// the deposit reduction.
  std::string FieldBackend = "serial";

  /// Worker threads for the field-solve stage; 0 means all.
  int FieldThreads = 0;

  /// Tiles of the field-solve stage — x-slabs for FDTD (capped at Nx),
  /// schedulable k-space chunks per launch for the spectral solver;
  /// 0 = auto (1 for the serial backend, else two per worker).
  int FieldTiles = 0;

  /// Capture the five-stage step's launch DAG on the first step and
  /// *replay* it on every later one (exec/StepGraph.h): specs, kernel
  /// bodies and dependency edges are resolved once, and each replayed
  /// step only rebinds the step index and simulation time through the
  /// ParamBlock. Bit-identical to the per-step resubmission path for
  /// every backend, solver, layout and tile/shard count; the graph is
  /// invalidated (and recaptured) when the ensemble size changes.
  bool UseStepGraph = false;

  /// Occupancy-skew threshold that arms the between-steps rebalancer
  /// (pic/Rebalancer.h): every RebalanceEveryNSteps steps the per-x-plane
  /// particle occupancy is measured, and when its skew (max block weight
  /// over mean across RebalanceBlocks x-blocks) exceeds this threshold
  /// the ensemble is cell-sorted and the deposit tiles + sharded push
  /// blocks are re-split weighted by the measured occupancy. <= 0
  /// disables rebalancing entirely. The trigger reads particle positions
  /// only (never timing), so it fires on the same steps on every backend
  /// — rebalanced runs stay bit-identical across backends. A fired
  /// repartition re-sorts, which permutes the order-sensitive state hash
  /// relative to a non-rebalanced run (conservation-gated, not
  /// bit-gated); the re-split itself never changes bits.
  double RebalanceThreshold = 0;

  /// Steps between skew checks (rebalancing must be cheap relative to
  /// the work it balances; the check is one O(N) histogram pass).
  int RebalanceEveryNSteps = 10;

  /// Evaluation blocks of the skew metric (clamped to the grid's Nx).
  /// Deliberately independent of the backend's shard/tile counts so the
  /// metric — and hence the firing steps — are backend-invariant.
  int RebalanceBlocks = 8;

  /// Absorbing/open boundary along x: > 0 damps E and B inside a sponge
  /// frame this many cells deep on the two x faces after every step and
  /// removes particles that entered it (open particle boundary; y/z stay
  /// periodic). The boundary is host-side and runs in every step mode —
  /// classic, capture and replay — after the captured DAG completes, so
  /// all backends apply the identical damping arithmetic.
  Index AbsorbingCells = 0;

  /// Damping exponent at the outermost sponge cell per application
  /// (AbsorbingLayer's quadratic-ramp profile).
  Real AbsorbingStrength = Real(0.5);

  /// Moving-window configuration; Enabled = false leaves every logical↔
  /// physical mapping the identity, so fixed-window runs are untouched
  /// bit-for-bit.
  MovingWindowOptions<Real> MovingWindow;

  /// Let the autotuner (exec/Autotuner.h) fill every stage knob still at
  /// its built-in default — backends left at "serial", thread/tile
  /// counts left at 0, step graph left off — from the host's measured
  /// machine profile. Knobs set explicitly (above) always win. All tuned
  /// knobs are hash-invariant, so a tuned run's state hash still equals
  /// the serial reference.
  bool Tune = false;
};

/// A complete electromagnetic PIC simulation over one periodic box.
template <typename Real, typename Array = ParticleArrayAoS<Real>>
class PicSimulation {
public:
  PicSimulation(GridSize Size, Vector3<Real> Origin, Vector3<Real> Step,
                Index ParticleCapacity, ParticleTypeTable<Real> Types,
                PicOptions<Real> Options = {})
      : Grid(Size, Origin, Step), Particles(ParticleCapacity),
        Types(std::move(Types)), Solver(Options.LightVelocity),
        Indexer(Grid), Options(Options) {
    if (this->Options.Tune)
      exec::applyTunePlan(this->Options, exec::Autotuner::hostPlan());
    if (this->Options.MovingWindow.Enabled &&
        this->Options.Solver == FieldSolverKind::Spectral)
      fatalError("moving window requires the FDTD solver (global FFTs "
                 "cannot address a ring window)");
    Backend = exec::createBackend(this->Options.PushBackend,
                                  {this->Options.PushThreads, /*Grain=*/0});
    if (!Backend)
      fatalError("PicOptions::PushBackend names no registered backend");
    DepositExec =
        exec::createBackend(this->Options.DepositBackend,
                            {this->Options.DepositThreads, /*Grain=*/0});
    if (!DepositExec)
      fatalError("PicOptions::DepositBackend names no registered backend");
    FieldExec = exec::createBackend(this->Options.FieldBackend,
                                    {this->Options.FieldThreads, /*Grain=*/0});
    if (!FieldExec)
      fatalError("PicOptions::FieldBackend names no registered backend");
    if (Backend->needsQueue() || DepositExec->needsQueue() ||
        FieldExec->needsQueue())
      Queue = std::make_unique<minisycl::queue>(minisycl::cpu_device());
    Accumulator = std::make_unique<TiledCurrentAccumulator<Real>>(
        Size, Origin, Step,
        resolveStageTiles(this->Options.DepositTiles, *DepositExec,
                          this->Options.DepositThreads));
    FieldTileCount = resolveStageTiles(this->Options.FieldTiles, *FieldExec,
                                       this->Options.FieldThreads);
    if (this->Options.RebalanceThreshold > 0)
      Rebal = std::make_unique<Rebalancer<Real>>(
          Size, Origin, Step, this->Options.RebalanceThreshold,
          Index(this->Options.RebalanceBlocks));
    if (this->Options.AbsorbingCells > 0)
      Absorber = std::make_unique<AbsorbingLayer<Real>>(
          Size, this->Options.AbsorbingCells, this->Options.AbsorbingStrength,
          AbsorbingLayer<Real>::Faces::XOnly);
    if (this->Options.TimeStep <= Real(0))
      this->Options.TimeStep = Solver.courantLimit(Grid) / Real(2);
    if (this->Options.Solver == FieldSolverKind::Spectral) {
      Spectral = std::make_unique<SpectralSolver<Real>>(
          Size, Step, Options.LightVelocity);
    } else {
      FieldPartition =
          std::make_unique<FdtdSlabPartition<Real>>(Size, FieldTileCount);
      FieldTileCount = FieldPartition->tileCount(); // clamped to Nx
      assert(this->Options.TimeStep <= Solver.courantLimit(Grid) &&
             "time step violates the Courant condition");
    }
  }

  YeeGrid<Real> &grid() { return Grid; }
  const YeeGrid<Real> &grid() const { return Grid; }
  Array &particles() { return Particles; }
  const Array &particles() const { return Particles; }
  const ParticleTypeTable<Real> &types() const { return Types; }
  Real timeStep() const { return Options.TimeStep; }
  Real time() const { return CurrentTime; }
  int stepCount() const { return Steps; }

  /// Adds a particle (positions are wrapped into the box).
  void addParticle(ParticleT<Real> P) {
    P.Position = Grid.wrapPosition(P.Position);
    P.Gamma = lorentzGamma(P.Momentum, Types[P.Type].Mass,
                           Options.LightVelocity);
    Particles.pushBack(P);
  }

  /// Advances the simulation by one step. With PicOptions::UseStepGraph
  /// the first step executes through graph-capturing wrappers and every
  /// later step replays the captured launch DAG with only the step
  /// index and simulation time rebound; otherwise the same DAG is
  /// submitted anew every step (both bit-identical,
  /// tests/pic/GraphEquivalenceTest.cpp).
  void step() {
    if (canSubmitStepAsync()) {
      submitStepAsync();
      finishStepAsync();
      return;
    }
    if (Options.UseStepGraph)
      captureStep();
    else
      runStep(*Backend, *DepositExec, *FieldExec);
    finishStep();
  }

  /// True when the next step can run as the split submit/finish pair
  /// below: graph mode is on and the captured DAG is valid for the
  /// current ensemble size and partition epoch (a fired rebalance
  /// re-splits the push blocks whose ranges the DAG baked in, so a
  /// repartition recaptures through the same seam a size change does).
  /// False on the capture step and after any invalidation — the driver
  /// falls back to step() for those (which captures/recaptures), then
  /// splits again.
  bool canSubmitStepAsync() const {
    return Options.UseStepGraph && Graph && Graph->instantiated() &&
           GraphN == Particles.size() && GraphEpoch == PartitionEpoch;
  }

  /// The issue half of a replayed step: rebinds the step index and
  /// simulation time and issues the captured DAG without waiting — on
  /// asynchronous backends the whole step is in flight when this
  /// returns. The serve layer's batcher submits several jobs'
  /// simulations back to back (each on its own disjoint pool lanes)
  /// before finishing any, so their steps overlap as one fused launch
  /// round. Must be paired with finishStepAsync() before any other
  /// member call. Only legal when canSubmitStepAsync().
  void submitStepAsync() {
    StepParams.StepIndex = Steps;
    StepParams.Scalars[0] = double(CurrentTime);
    exec::ExecutionContext Ctx;
    Ctx.Queue = Queue.get();
    AsyncStepWatch.reset();
    Graph->replayNoWait(Ctx);
  }

  /// The wait half: blocks until the issued step completes, then runs
  /// the shared host epilogue (counters, periodic sort, open boundary,
  /// rebalance check). submitStepAsync() + finishStepAsync() is
  /// bit-identical to step() on the replay path.
  void finishStepAsync() {
    Graph->waitReplay();
    addWall(GraphTiming, AsyncStepWatch);
    ++GraphReplays;
    finishStep();
  }

private:
  /// The one step body: the five-stage step as an explicit-edge launch
  /// DAG on the three stage backends, run to completion. A classic step
  /// passes the stage backends themselves; a graph capture passes
  /// GraphCapture wrappers around them, which record every launch while
  /// forwarding it. The J clear and the tile binning are launches too,
  /// and the edges reproduce every ordering the stages need, so a replay
  /// with no host code between the nodes is the same step. The host
  /// waits at the stage boundaries order nothing the edges do not; they
  /// only split the step's wall into the push, deposit and field stage
  /// walls (disjoint intervals, so the three sum to at most the step's
  /// wall).
  void runStep(exec::ExecutionBackend &PushE,
               exec::ExecutionBackend &DepositE,
               exec::ExecutionBackend &FieldE) {
    const Real Dt = Options.TimeStep;
    const Real C = Options.LightVelocity;
    auto View = Particles.view();
    const Index N = View.size();
    const ParticleTypeInfo<Real> *TypesPtr = Types.data();
    YeeInterpolator<Real> Interp(Grid);

    // Per-step rebinding surface (kernel bodies read the simulation
    // time through it) and the reusable kernel-body caches — rewound,
    // not reallocated, so the steady state allocates nothing and a
    // captured graph keeps pointing at stable storage.
    StepParams.StepIndex = Steps;
    StepParams.Scalars[0] = double(CurrentTime);
    StageCache.rewind();
    ChainCache.rewind();
    // Old positions are kept aside because the deposition needs both
    // ends of the same move.
    OldPositions.resize(std::size_t(N));
    NewPositions.resize(std::size_t(N));
    Vector3<Real> *OldPos = OldPositions.data();
    Vector3<Real> *NewPos = NewPositions.data();
    exec::ExecutionContext Ctx;
    Ctx.Queue = Queue.get();

    // The J clear: the deposit chain's first launch depends on it.
    const exec::ExecEvent Cleared = exec::submitCachedLaunch(
        DepositE, Ctx, DepositLaunchStats, 1, /*GrainHint=*/0,
        ClearCurrentBody{&Grid}, {}, StageCache);

    // Stages 1+2 — interpolate, push and wrap back into the box through
    // the push backend (particles are independent here, so any backend
    // is bit-identical), keeping both unwrapped endpoints of every move
    // aside for the deposition.
    Stopwatch Watch;
    const std::vector<exec::ExecEvent> Moved =
        PushSharded() && N > 0
            ? shardedInterpPush(PushE, View, Interp, OldPos, NewPos,
                                TypesPtr, Dt, C, N, Ctx)
            : std::vector<exec::ExecEvent>{exec::submitCachedLaunch(
                  PushE, Ctx, PushKernelTiming, N, /*GrainHint=*/0,
                  FusedPushBody{View, Interp, OldPos, NewPos, &Grid,
                                TypesPtr, Dt, C, &StepParams},
                  {}, StageCache)};
    for (const exec::ExecEvent &Event : Moved)
      Event.wait();
    addWall(PushTiming, Watch);

    // Stage 3 — current deposition: binning, per-tile private
    // accumulation and the fixed-order reduction, bit-identical to the
    // serial particle-order scatter (TiledCurrentAccumulator.h).
    Watch.reset();
    std::vector<exec::ExecEvent> DepositAfter = Moved;
    DepositAfter.push_back(Cleared);
    const exec::ExecEvent JReady = Accumulator->submitDeposit(
        Grid, View, OldPos, NewPos, TypesPtr, Dt, Options.ChargeConserving,
        DepositE, Ctx, DepositLaunchStats, ChainCache, DepositAfter,
        /*BinOnBackend=*/true);
    if (!FieldE.isAsynchronous())
      JReady.wait(); // keep the serial stage-wall attribution exact
    addWall(DepositTiming, Watch);

    // Stage 4 — the Maxwell solve, chained on the deposit reduction at
    // the first launch that reads J. The FDTD path's first half-step
    // also waits stage 1: advanceB writes the B lattice stage 1 reads.
    // (The spectral gather is ordered through JReady already.) On an
    // asynchronous field backend this wall includes the deposit tail
    // the chain hides — the stage boundary blurs by design.
    Watch.reset();
    const exec::ExecEvent FieldsDone =
        Spectral ? Spectral->submitStep(Grid, Dt, FieldE, Ctx, FieldTileCount,
                                        FieldLaunchStats, JReady, ChainCache)
                 : Solver.submitStep(Grid, Dt, *FieldPartition, FieldE, Ctx,
                                     FieldLaunchStats, JReady, ChainCache,
                                     Moved);
    FieldsDone.wait();
    JReady.wait(); // retire the deposit launches' stats publication too
    addWall(FieldTiming, Watch);
  }

  /// Graph-mode first step: runs the step body through graph-capturing
  /// wrappers, so every launch is recorded into a fresh StepGraph while
  /// executing normally, then instantiates the graph. The graph is keyed
  /// on the ensemble size and partition epoch; any change discards it
  /// and recaptures. Kernel bodies live in the member caches and stats
  /// in member RunStats, so the graph owns nothing.
  void captureStep() {
    Stopwatch Wall;
    Graph = std::make_unique<exec::StepGraph>(&StepParams);
    exec::GraphCapture PushCap(*Backend, *Graph);
    exec::GraphCapture DepositCap(*DepositExec, *Graph);
    exec::GraphCapture FieldCap(*FieldExec, *Graph);
    runStep(PushCap, DepositCap, FieldCap);
    if (!Graph->instantiate())
      Graph.reset(); // empty capture (defensive); next step recaptures
    GraphN = Particles.size();
    GraphEpoch = PartitionEpoch;
    ++GraphCaptures;
    addWall(GraphTiming, Wall);
  }

  /// Adds the wall time \p Watch has measured to a stage's stats.
  static void addWall(RunStats &Stats, const Stopwatch &Watch) {
    const double Ns = double(Watch.elapsedNanoseconds());
    Stats.HostNs += Ns;
    Stats.ModeledNs += Ns;
  }

  /// The host epilogue every step mode shares (classic, capture,
  /// replay): advances the counters, runs the periodic locality sort,
  /// the open boundary, and the rebalance check. Everything here is
  /// host-side and backend-independent, so each piece either preserves
  /// bits exactly (the sponge damping: identical arithmetic everywhere)
  /// or changes them identically on every backend (the sorts'
  /// permutations).
  void finishStep() {
    CurrentTime += Options.TimeStep;
    ++Steps;
    if (Options.SortEveryNSteps > 0 && Steps % Options.SortEveryNSteps == 0)
      sortByCell(Particles, Indexer);
    if (Absorber) {
      Absorber->apply(Grid);
      // A shrunk ensemble invalidates the captured graph through the
      // GraphN key on the next step().
      AbsorbedTotal += Absorber->removeAbsorbedParticles(Particles, Grid);
    }
    maybeShiftWindow();
    maybeRebalance();
  }

  /// The moving-window trigger: after time t the window owes
  /// floor(Speed * c * t / dx) planes of travel; shift by whatever is
  /// outstanding. A pure function of the accumulated simulation time —
  /// never of timing or scheduling — so every backend shifts on the
  /// same steps by the same plane counts (the rebalancer-trigger
  /// determinism argument).
  void maybeShiftWindow() {
    if (!Options.MovingWindow.Enabled)
      return;
    const Index Due = Index(std::floor(
        double(Options.MovingWindow.Speed) * double(Options.LightVelocity) *
        double(CurrentTime) / double(Grid.step().X)));
    const Index Planes = Due - Grid.window().OriginPlanes;
    if (Planes > 0)
      shiftWindow(Planes);
  }

  /// One window advance by \p Planes x-planes: slide the grid's ring
  /// window (O(Planes * plane), zeroing only the uncovered planes),
  /// retire the particles the trailing edge passed, inject fresh plasma
  /// into the uncovered leading-edge planes, re-base every logical-
  /// coordinate consumer (cell indexer, rebalancer histogram), and bump
  /// the partition epoch so a captured step graph recaptures exactly
  /// once per shift. Shard-stat windows restart so post-shift imbalance
  /// reflects the new plasma, not the retired history.
  void shiftWindow(Index Planes) {
    Grid.shiftWindow(Planes);
    WindowRetiredTotal += retireParticlesBelowX(Particles, Grid.origin().X);
    WindowInjectedTotal += injectLeadingEdge(Planes);
    Indexer = CellIndexer<Real>(Grid);
    if (Rebal)
      Rebal->refreshOrigin(Grid.origin());
    ++PartitionEpoch;
    for (exec::ExecutionBackend *E :
         {Backend.get(), DepositExec.get(), FieldExec.get()})
      if (auto *Sharded = dynamic_cast<exec::ShardResources *>(E))
        Sharded->resetShardStats();
  }

  /// Injects fresh plasma into the \p Planes leading-edge planes the
  /// window just uncovered (logical [Nx - Planes, Nx)), mirroring
  /// appendColdBeam's deterministic placement in *global* plane
  /// coordinates — base origin plus the global plane index — so an
  /// injected record is bit-identical to what a fixed big-domain run
  /// would have seeded at the same plane (gamma recomputed from the
  /// momentum exactly like addParticle; no wrap, the positions are
  /// inside the box by construction). \returns the number injected;
  /// aborts with a one-line error if the ensemble capacity lacks
  /// injection headroom (pushBack's guard is debug-only).
  Index injectLeadingEdge(Index Planes) {
    const MovingWindowOptions<Real> &W = Options.MovingWindow;
    if (W.InjectPerCell <= 0)
      return 0;
    const GridSize Sz = Grid.size();
    const Vector3<Real> O = Grid.baseOrigin();
    const Vector3<Real> D = Grid.step();
    const Real C = Options.LightVelocity;
    const Real Mass = Types[W.InjectType].Mass;
    const Index First = Planes >= Sz.Nx ? Index(0) : Sz.Nx - Planes;
    Index Injected = 0;
    for (Index L = First; L < Sz.Nx; ++L) {
      const Index Global = Grid.window().OriginPlanes + L;
      int PerCell = W.InjectPerCell;
      if (W.DensityProfile) {
        const Real XCenter = O.X + (Real(Global) + Real(0.5)) * D.X;
        PerCell = int(std::lround(double(W.InjectPerCell) *
                                  double(W.DensityProfile(XCenter))));
      }
      if (PerCell <= 0)
        continue;
      const Index Emitted = W.InjectPairType >= 0 ? Index(2) : Index(1);
      const Index PlaneCount = Emitted * Index(PerCell) * Sz.Ny * Sz.Nz;
      if (Particles.size() + PlaneCount > Particles.capacity())
        fatalError("moving-window injection exceeds the particle capacity "
                   "(allocate leading-edge headroom)");
      for (Index J = 0; J < Sz.Ny; ++J)
        for (Index K = 0; K < Sz.Nz; ++K)
          for (int P = 0; P < PerCell; ++P) {
            ParticleT<Real> Part;
            Part.Position = {
                O.X + (Real(Global) + Real(P + 0.5) / Real(PerCell)) * D.X,
                O.Y + (Real(J) + Real(0.5)) * D.Y,
                O.Z + (Real(K) + Real(0.5)) * D.Z};
            const Real V = W.InjectVx;
            const Real Gamma =
                Real(1) / std::sqrt(Real(1) - (V / C) * (V / C));
            Part.Momentum = {Gamma * Mass * V, Real(0), Real(0)};
            Part.Weight = W.InjectWeight;
            Part.Type = W.InjectType;
            Part.Gamma = lorentzGamma(Part.Momentum, Mass, C);
            Particles.pushBack(Part);
            ++Injected;
            if (W.InjectPairType >= 0) {
              Part.Type = W.InjectPairType;
              Part.Gamma = lorentzGamma(Part.Momentum,
                                        Types[W.InjectPairType].Mass, C);
              Particles.pushBack(Part);
              ++Injected;
            }
          }
    }
    return Injected;
  }

  /// The rebalance check (every RebalanceEveryNSteps steps when armed):
  /// measures the occupancy skew and, past the threshold, repartitions —
  /// cell-sort for slab locality (the one bit-visible effect: a
  /// permutation), occupancy-weighted deposit tiles, occupancy-weighted
  /// sharded push blocks, and a partition-epoch bump so graph mode
  /// recaptures exactly once per fire.
  void maybeRebalance() {
    if (!Rebal || Options.RebalanceEveryNSteps <= 0 ||
        Steps % Options.RebalanceEveryNSteps != 0)
      return;
    if (!Rebal->check(Particles))
      return;
    sortByCell(Particles, Indexer);
    Accumulator->retile(
        Rebal->planeBoundaries(Index(Accumulator->tileCount())));
    PushFractions.clear();
    if (Backend->shardCount() > 0)
      PushFractions = Rebal->particleFractions(Index(Backend->shardCount()));
    ++PartitionEpoch;
    // Start a fresh shardStats() window so post-repartition imbalance
    // reflects the new split, not the skewed history.
    for (exec::ExecutionBackend *E :
         {Backend.get(), DepositExec.get(), FieldExec.get()})
      if (auto *Sharded = dynamic_cast<exec::ShardResources *>(E))
        Sharded->resetShardStats();
  }

public:
  /// Advances \p N steps.
  void run(int N) {
    for (int I = 0; I < N; ++I)
      step();
  }

  /// Writes the full simulation state (particles with exact gamma bits,
  /// all nine field lattices in raw physical order, the moving-window
  /// state, step index and simulation time) as a v3 checkpoint, so a
  /// restored run — including a mid-shift moving-window one — continues
  /// bit-identically to an uninterrupted one. \returns false with a
  /// reason in \p Error on I/O failure.
  bool saveState(const std::string &Path, std::string *Error = nullptr) const {
    CheckpointWindow Win;
    Win.OriginPlanes = std::int64_t(Grid.window().OriginPlanes);
    Win.PhysBase = std::int64_t(Grid.window().PhysBase);
    Win.ShiftCount = std::int64_t(Grid.window().ShiftCount);
    return saveSimulationCheckpoint(Particles, std::int64_t(Steps),
                                    double(CurrentTime), Win, fieldRefs(),
                                    Path, Error);
  }

  /// Restores a saveState() checkpoint: particles, fields, step index
  /// and simulation time. The grid shape and scalar width must match
  /// the run that saved it. Any captured step graph is discarded (the
  /// next step recaptures); the sort/rebalance schedules continue from
  /// the restored step index, so the resumed run fires them on the same
  /// steps the uninterrupted run would. \returns false with a reason in
  /// \p Error, leaving no partially-restored state visible to step().
  bool restoreState(const std::string &Path, std::string *Error = nullptr) {
    std::int64_t StepIndex = 0;
    double Time = 0;
    CheckpointWindow Win;
    std::vector<CheckpointFieldMut<Real>> Fields;
    Fields.reserve(9);
    for (ScalarLattice<Real> *L :
         {&Grid.Ex, &Grid.Ey, &Grid.Ez, &Grid.Bx, &Grid.By, &Grid.Bz,
          &Grid.Jx, &Grid.Jy, &Grid.Jz})
      Fields.push_back({L->raw().data(), Index(L->raw().size())});
    if (!loadSimulationCheckpoint(Particles, StepIndex, Time, Win, Fields,
                                  Path, Error))
      return false;
    Steps = int(StepIndex);
    CurrentTime = Real(Time);
    // Re-base the window onto the restored raw lattices (a v2 file's
    // zero window makes this the identity), then refresh every
    // logical-coordinate consumer just like shiftWindow does.
    GridWindow W(Grid.size().Nx);
    W.PhysBase = Index(Win.PhysBase);
    W.OriginPlanes = Index(Win.OriginPlanes);
    W.ShiftCount = Index(Win.ShiftCount);
    Grid.restoreWindow(W);
    Indexer = CellIndexer<Real>(Grid);
    if (Rebal)
      Rebal->refreshOrigin(Grid.origin());
    // The captured DAG baked in the pre-restore item counts and block
    // ranges; drop it so the next step() recaptures against the
    // restored ensemble.
    Graph.reset();
    GraphN = Index(-1);
    return true;
  }

  /// Deposits the instantaneous charge density into \p Rho (diagnostics /
  /// continuity tests).
  void depositCharge(ScalarLattice<Real> &Rho) const {
    Rho.fill(Real(0));
    auto View = Particles.view();
    const ParticleTypeInfo<Real> *TypesPtr = Types.data();
    for (Index I = 0, E = View.size(); I < E; ++I) {
      auto P = View[I];
      depositChargeCic(Rho, Grid, P.position(),
                       TypesPtr[P.type()].Charge * P.weight());
    }
  }

  /// Total particle kinetic energy [erg].
  double kineticEnergy() const {
    auto View = Particles.view();
    const ParticleTypeInfo<Real> *TypesPtr = Types.data();
    double Total = 0;
    for (Index I = 0, E = View.size(); I < E; ++I) {
      auto P = View[I];
      const Real C = Options.LightVelocity;
      Total += double(P.weight()) *
               double((P.gamma() - Real(1)) * TypesPtr[P.type()].Mass * C * C);
    }
    return Total;
  }

  /// Field energy [erg] (delegates to the grid).
  double fieldEnergy() const { return Grid.fieldEnergy(); }

  /// The execution backend running the push stage.
  const exec::ExecutionBackend &pushBackend() const { return *Backend; }

  /// The execution backend running the deposit stage.
  const exec::ExecutionBackend &depositBackend() const { return *DepositExec; }

  /// The execution backend running the field-solve stage.
  const exec::ExecutionBackend &fieldBackend() const { return *FieldExec; }

  /// Current tiles the deposit stage scatters into.
  int depositTileCount() const { return Accumulator->tileCount(); }

  /// Tiles of the field-solve stage (x-slabs for FDTD, schedulable
  /// k-space chunks per launch for the spectral solver).
  int fieldTileCount() const { return FieldTileCount; }

  /// Accumulated wall time of the push stage (interpolate, push and
  /// wrap) across the classic steps and graph captures so far. The
  /// push, deposit and field stage walls are disjoint parts of the
  /// step's wall; a replayed step counts only in graphStats().
  const RunStats &pushStats() const { return PushTiming; }

  /// Accumulated wall time of the deposit stage (binning + accumulate +
  /// reduce; submission only when an asynchronous field backend overlaps
  /// the tail), counted like pushStats().
  const RunStats &depositStats() const { return DepositTiming; }

  /// Accumulated wall time of the field-solve stage, counted like
  /// pushStats() (on asynchronous field backends it includes the
  /// overlapped deposit tail).
  const RunStats &fieldStats() const { return FieldTiming; }

  /// Per-launch ledgers of the push stage: the sharded shape's precalc
  /// kernels (all zeros when stage 1 runs fused) and the fused or
  /// per-shard push kernels.
  const RunStats &precalcKernelStats() const { return PrecalcKernelTiming; }
  const RunStats &pushKernelStats() const { return PushKernelTiming; }

  /// Per-launch ledger of the deposit chain (clear + bin + accumulate +
  /// reduce): launches, specs built and submit-overhead nanoseconds.
  const RunStats &depositLaunchStats() const { return DepositLaunchStats; }

  /// Per-launch ledger of the field-solve chain.
  const RunStats &fieldLaunchStats() const { return FieldLaunchStats; }

  /// Wall time of graph-mode steps (the capture step and every replay);
  /// zeros unless PicOptions::UseStepGraph.
  const RunStats &graphStats() const { return GraphTiming; }

  /// True when steps run through the captured step graph.
  bool usesStepGraph() const { return Options.UseStepGraph; }

  /// Times a step graph was captured (>1 means invalidations happened).
  long long graphCaptureCount() const { return GraphCaptures; }

  /// Steps replayed from the captured graph.
  long long graphReplayCount() const { return GraphReplays; }

  /// The captured step graph, or null before the first graph-mode step
  /// (diagnostics and tests).
  const exec::StepGraph *stepGraph() const { return Graph.get(); }

  /// Submit-overhead totals across every per-launch ledger the step
  /// touches (the push stage's precalc/push-kernel ledgers plus the
  /// deposit and field chains): launches submitted, specs constructed,
  /// and wall nanoseconds inside submit() outside kernel bodies. Timing fields
  /// are left zero — this is the launch-bookkeeping view, not a wall
  /// clock.
  RunStats submitOverhead() const {
    RunStats Total;
    for (const RunStats *S :
         {&PrecalcKernelTiming, &PushKernelTiming, &DepositLaunchStats,
          &FieldLaunchStats}) {
      Total.Launches += S->Launches;
      Total.SpecsBuilt += S->SpecsBuilt;
      Total.SubmitNs += S->SubmitNs;
    }
    return Total;
  }

  /// Per-shard occupancy counters aggregated over *every* stage backend
  /// that is sharded (push, deposit and field solve own separate
  /// backend instances; shard i's counters sum element-wise across the
  /// sharded ones, sized to the largest shard count) — so the numbers
  /// describe the whole run, not just one stage. Empty when no stage
  /// runs on the sharded backend. Pair with exec::shardImbalance /
  /// exec::shardOccupancy for the derived diagnostics.
  std::vector<exec::ShardStat> shardStats() const {
    std::vector<exec::ShardStat> Total;
    for (const exec::ExecutionBackend *B :
         {Backend.get(), DepositExec.get(), FieldExec.get()}) {
      const auto *Sharded = dynamic_cast<const exec::ShardResources *>(B);
      if (!Sharded)
        continue;
      const std::vector<exec::ShardStat> Stage = Sharded->shardStats();
      if (Stage.size() > Total.size())
        Total.resize(Stage.size());
      for (std::size_t S = 0; S < Stage.size(); ++S) {
        Total[S].Launches += Stage[S].Launches;
        Total[S].Items += Stage[S].Items;
        Total[S].BusyNs += Stage[S].BusyNs;
      }
    }
    return Total;
  }

  /// Shards of the push backend (0 when it is not sharded).
  int shardCount() const { return Backend->shardCount(); }

  /// Rebalancer counters (all zeros when RebalanceThreshold <= 0).
  RebalanceStats rebalanceStats() const {
    return Rebal ? Rebal->stats() : RebalanceStats{};
  }

  /// Fired repartitions so far (the step-graph key includes this, so in
  /// graph mode captures == 1 + fired repartitions + size changes).
  long long partitionEpoch() const { return PartitionEpoch; }

  /// Particles removed by the open boundary so far (0 without one).
  long long absorbedParticleCount() const { return AbsorbedTotal; }

  /// Window shift events so far (0 for fixed-window runs).
  long long windowShiftCount() const {
    return (long long)(Grid.window().ShiftCount);
  }

  /// Total x-planes the window has advanced (origin() - baseOrigin()
  /// in plane units).
  Index windowOriginPlanes() const { return Grid.window().OriginPlanes; }

  /// Particles retired by the trailing edge so far.
  long long windowRetiredCount() const { return WindowRetiredTotal; }

  /// Particles injected at the leading edge so far.
  long long windowInjectedCount() const { return WindowInjectedTotal; }

  /// The open-boundary sponge, or nullptr when AbsorbingCells == 0.
  const AbsorbingLayer<Real> *absorbingLayer() const {
    return Absorber.get();
  }

  /// Current plane boundaries of the deposit tiles (the rebalance tests
  /// verify a fired repartition actually moved them).
  std::vector<Index> depositTileBoundaries() const {
    return Accumulator->tileBoundaries();
  }

private:
  using ViewT = decltype(std::declval<Array &>().view());

  /// The precalc half of the sharded stage 1: samples the grid fields
  /// at every particle of one shard's slice into the shard's arena,
  /// stashing the unwrapped old position — exactly the reads the fused
  /// kernel does, in the same per-particle order.
  struct PipelinePrecalcBody {
    ViewT View;
    YeeInterpolator<Real> Interp;
    Vector3<Real> *OldPos;
    FieldSample<Real> *Samples;
    Index Offset;
    const exec::ParamBlock *Params; ///< Scalars[0] = simulation time

    void operator()(Index Begin, Index End, int, int) const {
      const Real Time = Real(Params->Scalars[0]);
      for (Index I = Begin; I < End; ++I) {
        auto P = View[Offset + I];
        const Vector3<Real> Pos = P.position();
        OldPos[Offset + I] = Pos;
        Samples[I] = Interp(Pos, Time, Offset + I);
      }
    }
  };

  /// The push half: consumes the slice's sample buffer, then wraps each
  /// moved particle. The value round-trip through the buffer is bitwise
  /// exact, so the Boris update equals the fused kernel's.
  struct PipelinePushBody {
    ViewT View;
    const FieldSample<Real> *Samples;
    Vector3<Real> *NewPos;
    const YeeGrid<Real> *Grid;
    const ParticleTypeInfo<Real> *Types;
    Index Offset;
    Real Dt, C;

    void operator()(Index Begin, Index End, int, int) const {
      for (Index I = Begin; I < End; ++I) {
        auto P = View[Offset + I];
        BorisPusher::push<Real>(P, Samples[I], Types, Dt, C);
        wrapMoved(P, NewPos[Offset + I], *Grid);
      }
    }
  };

  /// The fused interpolate+push kernel of the unsharded stage 1 — a
  /// named body (not a step()-local lambda) so it can live in the
  /// reusable kernel cache across steps and a captured graph can keep
  /// pointing at it; the per-step simulation time flows in through the
  /// ParamBlock.
  struct FusedPushBody {
    ViewT View;
    YeeInterpolator<Real> Interp;
    Vector3<Real> *OldPos;
    Vector3<Real> *NewPos;
    const YeeGrid<Real> *Grid;
    const ParticleTypeInfo<Real> *Types;
    Real Dt, C;
    const exec::ParamBlock *Params; ///< Scalars[0] = simulation time

    void operator()(Index Begin, Index End, int, int) const {
      const Real Time = Real(Params->Scalars[0]);
      for (Index I = Begin; I < End; ++I) {
        auto P = View[I];
        const Vector3<Real> Pos = P.position();
        OldPos[I] = Pos;
        const FieldSample<Real> F = Interp(Pos, Time, I);
        BorisPusher::push<Real>(P, F, Types, Dt, C);
        wrapMoved(P, NewPos[I], *Grid);
      }
    }
  };

  /// Stage 2 for one pushed particle: stashes the unwrapped endpoint the
  /// deposition needs in \p NewPos and wraps the position into the box.
  template <typename ProxyT>
  static void wrapMoved(ProxyT P, Vector3<Real> &NewPos,
                        const YeeGrid<Real> &Grid) {
    const Vector3<Real> Pos = P.position();
    NewPos = Pos;
    P.setPosition(Grid.wrapPosition(Pos));
  }

  /// Grid.clearCurrent() as a kernel (one item): under replay the J
  /// clear must be a node ordered before the deposit, not a host call.
  struct ClearCurrentBody {
    YeeGrid<Real> *Grid;

    void operator()(Index, Index, int, int) const { Grid->clearCurrent(); }
  };

  /// The push backend's shard-resource surface, or nullptr when the
  /// backend is not sharded. (shardCount() is the cheap capability
  /// query; the interface is needed for the per-shard arenas — the
  /// concrete type may be a ShardedBackend or the serve layer's
  /// pool-client lease over one.)
  exec::ShardResources *PushSharded() const {
    return Backend->shardCount() > 0
               ? dynamic_cast<exec::ShardResources *>(Backend.get())
               : nullptr;
  }

  /// Stage 1 on the sharded backend: the ensemble splits once into the
  /// backend's persistent shards (the shared slab partition, so shard s
  /// owns the same particle slice every step). Each shard runs a
  /// precalc launch (field samples into the shard's first-touched
  /// arena, old positions stashed) chained to a push launch consuming
  /// them (and wrapping the moved particles), both routed to the shard's
  /// lane by affinity — so shards proceed independently, with no
  /// cross-shard barrier inside the stage. The sample-buffer round-trip is bitwise exact and every
  /// particle replays the fused kernel's exact operation sequence, so
  /// the result is bit-identical to the serial stage for every shard
  /// count (tests/pic/ShardEquivalenceTest.cpp).
  /// \returns the push launches' events.
  /// Arenas always come from the concrete sharded backend; submissions
  /// go through \p Exec so a graph-capturing wrapper can record them.
  std::vector<exec::ExecEvent>
  shardedInterpPush(exec::ExecutionBackend &Exec, const ViewT &View,
                    const YeeInterpolator<Real> &Interp,
                    Vector3<Real> *OldPos, Vector3<Real> *NewPos,
                    const ParticleTypeInfo<Real> *TypesPtr, Real Dt, Real C,
                    Index N, const exec::ExecutionContext &Ctx) {
    exec::ShardResources *Sharded = PushSharded();
    const Index Blocks =
        exec::clampSlabCount(N, Index(Backend->shardCount()));
    std::vector<exec::ExecEvent> PushEvents;
    PushEvents.reserve(std::size_t(Blocks));

    // After a fired rebalance the even split gives way to the
    // occupancy-weighted one: PushFractions (cumulative occupancy at
    // the weighted plane boundaries) rescaled by the current N. The
    // push is per-particle-independent, so ANY index partition is
    // bit-identical — this re-split changes balance, never bits.
    const bool Weighted = PushFractions.size() == std::size_t(Blocks) + 1;
    auto BlockRange = [&](Index S) {
      if (!Weighted)
        return exec::slabRange(N, Blocks, S);
      exec::SlabRange R;
      R.Begin = Index(PushFractions[std::size_t(S)] * double(N));
      R.End = S + 1 == Blocks
                  ? N
                  : Index(PushFractions[std::size_t(S) + 1] * double(N));
      return R;
    };

    for (Index S = 0; S < Blocks; ++S) {
      const exec::SlabRange R = BlockRange(S);
      if (R.empty())
        continue; // a weighted block may own no particles
      auto *Buf = static_cast<FieldSample<Real> *>(Sharded->shardArena(
          int(S), sizeof(FieldSample<Real>) * std::size_t(R.size())));
      const exec::ExecEvent Sampled = exec::submitCachedLaunch(
          Exec, Ctx, PrecalcKernelTiming, R.size(), /*GrainHint=*/0,
          PipelinePrecalcBody{View, Interp, OldPos, Buf, R.Begin,
                              &StepParams},
          {}, StageCache, /*ShardAffinity=*/int(S));
      PushEvents.push_back(exec::submitCachedLaunch(
          Exec, Ctx, PushKernelTiming, R.size(), /*GrainHint=*/0,
          PipelinePushBody{View, Buf, NewPos, &Grid, TypesPtr, R.Begin, Dt,
                           C},
          {Sampled}, StageCache, /*ShardAffinity=*/int(S)));
    }
    return PushEvents;
  }

  /// The nine field lattices in checkpoint order (Ex..Bz, Jx..Jz) —
  /// saveState and restoreState must agree on this order.
  std::vector<CheckpointFieldRef<Real>> fieldRefs() const {
    std::vector<CheckpointFieldRef<Real>> Fields;
    Fields.reserve(9);
    for (const ScalarLattice<Real> *L :
         {&Grid.Ex, &Grid.Ey, &Grid.Ez, &Grid.Bx, &Grid.By, &Grid.Bz,
          &Grid.Jx, &Grid.Jy, &Grid.Jz})
      Fields.push_back({L->raw().data(), Index(L->raw().size())});
    return Fields;
  }

  /// The tile-count heuristic shared by the deposit and field stages:
  /// the explicit option, or 1 for the serial backend (the classic
  /// whole-grid pass, zero tiling overhead), two tiles per shard for
  /// sharded backends (the shard count is the real parallel width), else
  /// two tiles per worker so dynamic backends can balance uneven work
  /// (the tile partitions additionally clamp to the grid's Nx).
  static int resolveStageTiles(int ExplicitTiles,
                               const exec::ExecutionBackend &Exec,
                               int Threads) {
    if (ExplicitTiles > 0)
      return ExplicitTiles;
    if (std::string(Exec.name()) == "serial")
      return 1;
    if (Exec.shardCount() > 0)
      return 2 * Exec.shardCount();
    const int Workers =
        Threads > 0 ? Threads : int(std::thread::hardware_concurrency());
    return 2 * std::max(1, Workers);
  }

  YeeGrid<Real> Grid;
  Array Particles;
  ParticleTypeTable<Real> Types;
  FdtdSolver<Real> Solver;
  std::unique_ptr<SpectralSolver<Real>> Spectral;
  CellIndexer<Real> Indexer;
  PicOptions<Real> Options;
  std::unique_ptr<exec::ExecutionBackend> Backend;
  std::unique_ptr<exec::ExecutionBackend> DepositExec;
  std::unique_ptr<exec::ExecutionBackend> FieldExec;
  std::unique_ptr<TiledCurrentAccumulator<Real>> Accumulator;
  std::unique_ptr<FdtdSlabPartition<Real>> FieldPartition; ///< FDTD only
  std::unique_ptr<minisycl::queue> Queue;
  std::vector<Vector3<Real>> OldPositions;
  std::vector<Vector3<Real>> NewPositions;
  RunStats PushTiming;
  RunStats DepositTiming;
  RunStats FieldTiming;
  RunStats PrecalcKernelTiming; ///< sharded precalc launch ledger
  RunStats PushKernelTiming;    ///< push + wrap launch ledger
  RunStats DepositLaunchStats;  ///< deposit-chain launch ledger
  RunStats FieldLaunchStats;    ///< field-chain launch ledger
  RunStats GraphTiming;         ///< graph-mode step wall (capture+replay)
  exec::ParamBlock StepParams; ///< per-step rebinding surface
  Stopwatch AsyncStepWatch;    ///< submitStepAsync -> finishStepAsync wall
  exec::KernelCache StageCache; ///< clear + stage-1 bodies
  exec::KernelCache ChainCache; ///< deposit + field chain bodies
  std::unique_ptr<exec::StepGraph> Graph;
  Index GraphN = Index(-1); ///< ensemble size the graph was captured at
  long long GraphCaptures = 0;
  long long GraphReplays = 0;
  std::unique_ptr<Rebalancer<Real>> Rebal; ///< armed by RebalanceThreshold
  std::unique_ptr<AbsorbingLayer<Real>> Absorber; ///< armed by AbsorbingCells
  /// Cumulative occupancy fractions at the weighted push-block
  /// boundaries after a fired rebalance; empty = even split.
  std::vector<double> PushFractions;
  long long PartitionEpoch = 0; ///< bumped by every fired repartition
  long long GraphEpoch = -1;    ///< PartitionEpoch the graph captured at
  long long AbsorbedTotal = 0;  ///< particles removed by the open boundary
  long long WindowRetiredTotal = 0;  ///< retired by the trailing edge
  long long WindowInjectedTotal = 0; ///< injected at the leading edge
  int FieldTileCount = 1;
  Real CurrentTime = Real(0);
  int Steps = 0;
};

} // namespace pic
} // namespace hichi

#endif // HICHI_PIC_PICSIMULATION_H

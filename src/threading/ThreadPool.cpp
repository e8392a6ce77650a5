//===-- threading/ThreadPool.cpp - Persistent worker pool ----------------===//
//
// Part of the hichi-boris-dpcpp-repro project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "threading/ThreadPool.h"

#include "support/CpuTopology.h"
#include "support/Logging.h"
#include "threading/CoreBinding.h"

#include <cassert>

using namespace hichi;
using namespace hichi::threading;

ThreadPool::ThreadPool(int ExtraWorkers, bool BindToCores) {
  assert(ExtraWorkers >= 0 && "negative worker count");
  if (BindToCores)
    tryBindCurrentThreadToCore(0);
  Workers.resize(size_t(ExtraWorkers));
  for (int I = 0; I < ExtraWorkers; ++I)
    Workers[size_t(I)].Thread =
        std::thread([this, I, BindToCores] { workerLoop(I + 1, BindToCores); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    ShuttingDown = true;
  }
  WakeCv.notify_all();
  for (auto &Slot : Workers)
    if (Slot.Thread.joinable())
      Slot.Thread.join();
}

/// True while the current thread is executing inside a pool region (as
/// caller-worker 0 or as a parked worker). Used to detect nested run()
/// calls, which must degrade to inline execution instead of deadlocking.
static thread_local bool InsidePoolRegion = false;

void ThreadPool::run(int Width, const std::function<void(int)> &Body) {
  if (Width < 1)
    Width = 1;
  if (Width > maxWidth())
    Width = maxWidth();

  // Nested call from THIS thread while it is inside an active region (a
  // kernel body that itself opens a parallel loop): run every logical
  // worker inline. Serial, but correct — each worker index is visited
  // exactly once, which is all static partitioning and chunk stealing
  // need. Note the flag is thread-local: a *different* thread (the
  // minisycl device thread, any other host thread) takes the
  // serialize-and-wait path below instead, so a region body must never
  // block on work that needs another thread's run() to finish —
  // that is a deadlock, not a supported pattern.
  if (InsidePoolRegion) {
    for (int W = 0; W < Width; ++W)
      Body(W);
    return;
  }

  if (Width == 1) {
    Body(0);
    return;
  }

  {
    std::unique_lock<std::mutex> Lock(Mutex);
    // Concurrent callers (the minisycl device thread, other host
    // threads, the main thread) serialize: wait for the active region to
    // retire before opening the next one.
    DoneCv.wait(Lock, [this] { return !InRegion; });
    InRegion = true;
    ActiveBody = &Body;
    ActiveWidth = Width;
    Outstanding = Width - 1; // workers 1..Width-1
    ++Epoch;
  }
  WakeCv.notify_all();

  InsidePoolRegion = true;
  Body(0); // the caller is worker 0
  InsidePoolRegion = false;

  {
    std::unique_lock<std::mutex> Lock(Mutex);
    DoneCv.wait(Lock, [this] { return Outstanding == 0; });
    ActiveBody = nullptr;
    InRegion = false;
  }
  DoneCv.notify_all(); // admit the next queued concurrent caller
}

void ThreadPool::workerLoop(int WorkerIndex, bool BindToCores) {
  if (BindToCores)
    tryBindCurrentThreadToCore(WorkerIndex);

  std::uint64_t SeenEpoch = 0;
  for (;;) {
    const std::function<void(int)> *Body = nullptr;
    {
      std::unique_lock<std::mutex> Lock(Mutex);
      WakeCv.wait(Lock, [&] {
        return ShuttingDown || (Epoch != SeenEpoch && ActiveBody != nullptr);
      });
      if (ShuttingDown)
        return;
      SeenEpoch = Epoch;
      if (WorkerIndex >= ActiveWidth)
        continue; // not part of this region; wait for the next epoch
      Body = ActiveBody;
    }

    InsidePoolRegion = true;
    (*Body)(WorkerIndex);
    InsidePoolRegion = false;

    {
      std::lock_guard<std::mutex> Lock(Mutex);
      if (--Outstanding == 0)
        DoneCv.notify_all();
    }
  }
}

ThreadPool &ThreadPool::global() {
  // Sized to the (possibly HICHI_TOPOLOGY-overridden) topology so that the
  // NUMA-arena paths have enough workers even on small hosts.
  static ThreadPool Pool(CpuTopology::detect().coreCount() - 1,
                         /*BindToCores=*/true);
  return Pool;
}

// Prefetch driver for the serve loop (the async artifact-prefetch pipeline):
// warm-hint staging and the per-round lookahead pass. Header-only.
#ifndef SRC_SERVING_PREFETCHER_H_
#define SRC_SERVING_PREFETCHER_H_

#include <algorithm>
#include <deque>
#include <vector>

#include "src/serving/artifact_store.h"
#include "src/serving/engine.h"
#include "src/serving/serve_loop.h"

namespace dz {

// Filters `config.warm_hints` to valid variant ids and caps the list at the
// store's GPU capacity. The engines drain the result one low-priority transfer
// at a time (as channels go idle) starting at t = 0. Empty when disabled.
inline std::deque<int> PendingWarmHints(const PrefetchConfig& config, int n_models,
                                        int gpu_capacity) {
  std::deque<int> pending;
  if (!config.enabled) {
    return pending;
  }
  for (int hint : config.warm_hints) {
    if (static_cast<int>(pending.size()) >= gpu_capacity) {
      break;
    }
    if (hint >= 0 && hint < n_models) {
      pending.push_back(hint);
    }
  }
  return pending;
}

// One scheduling round of the lookahead pass (paper §8 / MetaSys-style
// pipelining): issues low-priority loads for the first `config.lookahead`
// distinct variants waiting in `loop`'s queue (counted by variant in its
// queued_variants()) that the admission did not mark active
// (the variants the batch owns: running, claimed or admitted this round), then
// drains leftover warm hints. A prefetch never evicts an active variant nor one
// in that window: a near-head request can be resident-but-blocked (KV or batch
// slots), and evicting its artifact for a speculation would re-pay the load it
// was about to skip. The shield stops at the window — protecting every queued
// variant would starve the prefetcher of eviction candidates.
inline void RunPrefetchPass(ArtifactStore& store, const PrefetchConfig& config, double now,
                            const ServeLoop& loop, const Admission& admission,
                            std::deque<int>& pending_hints, PrefetchScratch& scratch) {
  if (!config.enabled) {
    return;
  }
  const VariantCounts& queued = loop.queued_variants();
  // The window (first `lookahead` distinct non-active variants, in queue order)
  // is both the target list and the shield, so no target sits beyond it. The
  // walk stops once the window is full or holds every such variant.
  int waiting_variants = static_cast<int>(queued.ids.size());
  for (int variant : admission.active_ids) {
    if (queued.count[static_cast<size_t>(variant)] > 0) {
      --waiting_variants;
    }
  }
  const int window_size = std::min(config.lookahead, waiting_variants);
  std::vector<int>& window = scratch.window;
  window.clear();
  for (const int h : loop.queue()) {
    if (static_cast<int>(window.size()) >= window_size) {
      break;
    }
    const int variant = loop.pending(h).req.model_id;
    if (!admission.IsActive(variant) &&
        std::find(window.begin(), window.end(), variant) == window.end()) {
      window.push_back(variant);
    }
  }
  // The store only tests membership, so the shield's order is free.
  std::vector<int>& protect = scratch.protect;
  protect.assign(admission.active_ids.begin(), admission.active_ids.end());
  protect.insert(protect.end(), window.begin(), window.end());
  for (int variant : window) {
    if (!store.IsResident(variant, now) && !store.IsLoading(variant, now)) {
      store.Prefetch(variant, now, protect);
    }
  }
  // Queued variants took priority; leftover warm hints use what is left of the
  // idle channel time.
  while (!pending_hints.empty()) {
    const int hint = pending_hints.front();
    if (store.IsResident(hint, now) || store.IsLoading(hint, now) ||
        std::find(window.begin(), window.end(), hint) != window.end()) {
      pending_hints.pop_front();  // already warm (or just attempted)
      continue;
    }
    if (!store.Prefetch(hint, now, protect).ok) {
      break;  // channel busy or no evictable slot: retry next round
    }
    pending_hints.pop_front();
  }
}

}  // namespace dz

#endif  // SRC_SERVING_PREFETCHER_H_

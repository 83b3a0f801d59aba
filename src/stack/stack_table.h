// Copyright (c) dimmunix-cpp authors. MIT license.
//
// Interned call stacks with per-depth suffix hashes.
//
// §5.6: "Dimmunix uses a hash table to map raw call stacks to our own call
// stack objects. Matching a call stack consists of hashing the raw call
// stack and finding the corresponding metadata object S."
//
// Every distinct call stack observed by the engine (and every stack loaded
// from the signature history) is interned exactly once and given a dense
// StackId. For each interned stack we precompute the hash of its top-d
// frames for d = 1..max_depth, which lets MatchesAtDepth reject most pairs
// with one comparison.
//
// Concurrency: interning runs on the application's critical path (every
// Request interns the current stack), so the common "stack already
// interned" case is LOCK-FREE — a probe of an open-addressing index of
// atomics, then an immutable entry read through an AtomicSlab. Only a
// genuinely new stack takes the writer lock. Entry contents never change
// after publication, so Get/MatchesAtDepth/DeepestMatchDepth/Describe are
// lock-free too.
//
// The index is keyed by the fold of frame.h (StackHashStep, outermost frame
// first). An annotated thread keeps that fold current as it pushes and pops
// frames, so InternAnnotated finds its stack with no copy and no rehash.

#ifndef DIMMUNIX_STACK_STACK_TABLE_H_
#define DIMMUNIX_STACK_STACK_TABLE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/atomic_slab.h"
#include "src/common/spin_lock.h"
#include "src/stack/annotation.h"
#include "src/stack/frame.h"

namespace dimmunix {

using StackId = std::int32_t;
constexpr StackId kInvalidStackId = -1;

// Immutable after interning; stable address (entries live in a slab).
struct StackEntry {
  StackId id = kInvalidStackId;
  std::vector<Frame> frames;          // innermost first
  std::uint64_t full_hash = 0;        // StackTable::IndexHash(frames), 0 remapped to 1
  std::vector<std::uint64_t> depth_hash;  // depth_hash[d-1] = hash of top-d frames
};

class StackTable {
 public:
  explicit StackTable(int max_depth);
  ~StackTable();

  StackTable(const StackTable&) = delete;
  StackTable& operator=(const StackTable&) = delete;

  // Interns `frames`, returning the existing id when already present.
  // Thread-safe; lock-free when the stack is already interned.
  StackId Intern(const std::vector<Frame>& frames);

  // Interns the stack CaptureStack() returns under `annotated` — its frames
  // reversed, innermost first — with `innermost` in front when it is not
  // kInvalidFrame (a global lock's process frame). Same id as Intern of
  // that vector, but a hit probes the index with the thread's rolling hash
  // and compares frames in place, building nothing. Returns kInvalidStackId
  // for an empty annotation stack or one deeper than kMaxCapturedFrames,
  // which CaptureStack truncates: intern its result instead.
  StackId InternAnnotated(const AnnotatedStack& annotated, Frame innermost);

  // The index hash of `frames` (innermost first): StackHashStep folded from
  // the last frame to the first.
  static std::uint64_t IndexHash(const std::vector<Frame>& frames);

  // Entry accessor; the returned reference is valid forever. Lock-free.
  const StackEntry& Get(StackId id) const { return *entries_.Get(static_cast<std::size_t>(id)); }

  // True iff stacks `a` and `b` match when compared at depth d (§5.5): their
  // top-min(d, len) frames are identical and the shorter stack is only
  // accepted when it is entirely contained, i.e. both are truncated at the
  // same effective depth. Lock-free.
  bool MatchesAtDepth(StackId a, StackId b, int depth) const;

  // The deepest depth (<= max_depth) at which `a` still matches `b`;
  // 0 if they do not even match at depth 1. Used by the calibration
  // fast-path (§5.5). Lock-free.
  int DeepestMatchDepth(StackId a, StackId b) const;

  int max_depth() const { return max_depth_; }
  std::size_t size() const { return entries_.size(); }

  // Diagnostic: "frame0;frame1;..." with symbolized names.
  std::string Describe(StackId id) const;

 private:
  // One slot of the lock-free intern index: the entry's full hash (0 =
  // empty; real hashes of 0 are remapped) and its id. A single writer (the
  // insert lock holder) publishes id before hash, so any reader that
  // observes the hash observes a valid id.
  struct IndexSlot {
    std::atomic<std::uint64_t> hash{0};
    std::atomic<StackId> id{kInvalidStackId};
  };
  struct Index {
    explicit Index(std::size_t capacity)
        : mask(capacity - 1), slots(std::make_unique<IndexSlot[]>(capacity)) {}
    const std::size_t mask;  // capacity - 1 (power of two)
    std::unique_ptr<IndexSlot[]> slots;
  };

  std::uint64_t SuffixHash(const std::vector<Frame>& frames, int depth) const;

  // Probes `index` for an entry with `hash` whose frames satisfy
  // `same(frames)`. Returns kInvalidStackId on miss.
  template <class SameFrames>
  StackId Probe(const Index& index, std::uint64_t hash, const SameFrames& same) const;

  // Slow path of a miss: under the writer lock, re-probes and otherwise
  // appends a new entry for `frames` (whose index hash is `hash`).
  StackId InsertSlow(std::vector<Frame> frames, std::uint64_t hash);

  // Writer-lock held: inserts (hash -> id) into the current index, growing
  // (and republishing) it when load factor exceeds 1/2.
  void IndexInsertLocked(std::uint64_t hash, StackId id);

  const int max_depth_;
  SpinLock lock_;  // serializes writers
  AtomicSlab<StackEntry> entries_;
  std::atomic<Index*> index_;
  std::vector<std::unique_ptr<Index>> retired_;  // old index generations
};

}  // namespace dimmunix

#endif  // DIMMUNIX_STACK_STACK_TABLE_H_

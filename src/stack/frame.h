// Copyright (c) dimmunix-cpp authors. MIT license.
//
// A Frame is one "instruction address" of a deadlock signature (§5.3).
// Signatures must be portable across executions, so a frame is never a raw
// pointer:
//   - annotated frames hash a stable human-readable position string
//     ("Connection::close@connection.cc:41"), mirroring the Java
//     implementation's <methodName, file:line#> vectors;
//   - captured frames combine the executable/module identity with the byte
//     offset of the return address relative to the module base, mirroring
//     the pthreads implementation ("Dimmunix computes the byte offset of
//     each return address relative to the beginning of the binary").

#ifndef DIMMUNIX_STACK_FRAME_H_
#define DIMMUNIX_STACK_FRAME_H_

#include <cstdint>
#include <string>

namespace dimmunix {

// Execution-independent position id.
using Frame = std::uint64_t;

constexpr Frame kInvalidFrame = 0;

// Builds a frame from a stable position string and remembers the name for
// symbolization. Deterministic: the same string yields the same frame in
// every process.
Frame FrameFromName(const std::string& name);

// Builds a frame from a module identity hash and a module-relative offset.
Frame FrameFromModuleOffset(std::uint64_t module_hash, std::uint64_t offset);

// Human-readable form: the registered name if the frame was annotated in
// this process, otherwise "0x<hex>".
std::string FrameName(Frame frame);

// In-memory identity hash of a call stack: a word-wise fold over its frames,
// outermost first — the order in which annotations are pushed, so a thread
// can keep its current stack's hash up to date one step per push. The stack
// table's index is keyed by it; it is never persisted.
inline constexpr std::uint64_t kStackHashSeed = 0x9e3779b97f4a7c15ULL;

inline std::uint64_t StackHashStep(std::uint64_t hash, Frame frame) {
  hash = (hash ^ frame) * 0xbf58476d1ce4e5b9ULL;
  return hash ^ (hash >> 31);
}

}  // namespace dimmunix

#endif  // DIMMUNIX_STACK_FRAME_H_

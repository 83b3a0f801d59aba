// Copyright (c) dimmunix-cpp authors. MIT license.
//
// Deterministic call-stack annotation.
//
// The Java Dimmunix obtains call stacks from the JVM; the pthreads versions
// unwind with backtrace(). For reproducible experiments (and for programs
// built with aggressive inlining, where unwinding is lossy) this library
// additionally supports *annotated* frames: a code path marks its position
// with a RAII ScopedFrame, and the capture routine returns the thread's
// current annotation stack when it is non-empty. Tests, demo apps, and the
// microbenchmark all use annotated frames so that signatures are identical
// across runs and machines.
//
// Usage:
//   void Update(Table* x, Table* y) {
//     DIMMUNIX_FRAME();            // position = function@file:line
//     x->mu.Lock();                // stack captured inside includes it
//     ...
//   }

#ifndef DIMMUNIX_STACK_ANNOTATION_H_
#define DIMMUNIX_STACK_ANNOTATION_H_

#include <cstddef>
#include <vector>

#include "src/stack/frame.h"

namespace dimmunix {

// Per-thread annotation stack, outermost call first. Cheap to read; only the
// owning thread mutates it.
const std::vector<Frame>& ThreadAnnotationStack();

// The annotation stack together with its identity hash: StackHashStep
// folded over `frames[0..depth)`, which push and pop keep current. It is the
// stack table's index hash of the captured (reversed) stack, so a request
// finds its interned stack without copying or rehashing the frames.
struct AnnotatedStack {
  const Frame* frames = nullptr;  // outermost first
  std::size_t depth = 0;
  std::uint64_t hash = kStackHashSeed;
};
AnnotatedStack ThreadAnnotatedStack();

// Pushes/pops are balanced via ScopedFrame; exposed for the few places
// (thread pools) that transfer logical stacks across threads.
void PushAnnotatedFrame(Frame frame);
void PopAnnotatedFrame();

class ScopedFrame {
 public:
  explicit ScopedFrame(Frame frame) { PushAnnotatedFrame(frame); }
  explicit ScopedFrame(const std::string& name) : ScopedFrame(FrameFromName(name)) {}
  ~ScopedFrame() { PopAnnotatedFrame(); }

  ScopedFrame(const ScopedFrame&) = delete;
  ScopedFrame& operator=(const ScopedFrame&) = delete;
};

namespace stack_internal {
// Builds (once per call site) the frame for a position string; the static
// local keeps the hot path to a single branch.
inline Frame SiteFrame(const char* func, const char* file, int line) {
  std::string name(func);
  name += '@';
  // Strip directories: signatures should not depend on the build tree path.
  const char* base = file;
  for (const char* p = file; *p != '\0'; ++p) {
    if (*p == '/') {
      base = p + 1;
    }
  }
  name += base;
  name += ':';
  name += std::to_string(line);
  return FrameFromName(name);
}
}  // namespace stack_internal

#define DIMMUNIX_FRAME()                                                              \
  static const ::dimmunix::Frame _dimx_site_frame =                                   \
      ::dimmunix::stack_internal::SiteFrame(__func__, __FILE__, __LINE__);            \
  ::dimmunix::ScopedFrame _dimx_scoped_frame { _dimx_site_frame }

// Named variant for building precise synthetic call flows in tests/benches.
#define DIMMUNIX_NAMED_FRAME(name_literal)                                            \
  static const ::dimmunix::Frame _dimx_site_frame_n =                                 \
      ::dimmunix::FrameFromName(name_literal);                                        \
  ::dimmunix::ScopedFrame _dimx_scoped_frame_n { _dimx_site_frame_n }

}  // namespace dimmunix

#endif  // DIMMUNIX_STACK_ANNOTATION_H_

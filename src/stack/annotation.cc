// Copyright (c) dimmunix-cpp authors. MIT license.

#include "src/stack/annotation.h"

namespace dimmunix {
namespace {

struct ThreadAnnotations {
  std::vector<Frame> frames;
  std::vector<std::uint64_t> hashes;  // hashes[i]: the fold over frames[0..i]
};

ThreadAnnotations& Mutable() {
  thread_local ThreadAnnotations annotations;
  return annotations;
}

}  // namespace

const std::vector<Frame>& ThreadAnnotationStack() { return Mutable().frames; }

AnnotatedStack ThreadAnnotatedStack() {
  const ThreadAnnotations& a = Mutable();
  if (a.frames.empty()) {
    return AnnotatedStack{};
  }
  return AnnotatedStack{a.frames.data(), a.frames.size(), a.hashes.back()};
}

void PushAnnotatedFrame(Frame frame) {
  ThreadAnnotations& a = Mutable();
  a.hashes.push_back(StackHashStep(a.hashes.empty() ? kStackHashSeed : a.hashes.back(), frame));
  a.frames.push_back(frame);
}

void PopAnnotatedFrame() {
  ThreadAnnotations& a = Mutable();
  if (!a.frames.empty()) {
    a.frames.pop_back();
    a.hashes.pop_back();
  }
}

}  // namespace dimmunix

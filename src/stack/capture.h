// Copyright (c) dimmunix-cpp authors. MIT license.
//
// Call-stack capture. Returns frames *innermost first* (index 0 is the
// closest to the lock() call), because signature matching compares a suffix
// of the call flow, i.e. the most recent frames (§5.5).

#ifndef DIMMUNIX_STACK_CAPTURE_H_
#define DIMMUNIX_STACK_CAPTURE_H_

#include <vector>

#include "src/stack/frame.h"

namespace dimmunix {

// Hard cap on captured frames ("a call stack is always of finite size").
inline constexpr int kMaxCapturedFrames = 32;

// Captures the current thread's call stack:
//  - if the thread has annotated frames, returns them (reversed so the most
//    recently pushed annotation comes first);
//  - otherwise unwinds with backtrace() and converts return addresses to
//    module-relative frames, skipping `skip` innermost native frames (the
//    capture machinery itself).
std::vector<Frame> CaptureStack(int skip = 2);

// Unconditionally unwinds natively (used by the preload shim even when the
// host program happens to use annotations).
std::vector<Frame> CaptureNativeStack(int skip);

// The frame of one native return address: the hash of its module's file
// name (as dladdr reports it; argv[0] for the main executable) combined with
// the address's offset from the module base. Resolved with glibc's lock-free
// _dl_find_object and a per-thread cache of module-name hashes; dladdr per
// address only where _dl_find_object is missing (glibc < 2.35) or cannot
// place the address.
Frame NativeFrame(const void* return_address);

}  // namespace dimmunix

#endif  // DIMMUNIX_STACK_CAPTURE_H_

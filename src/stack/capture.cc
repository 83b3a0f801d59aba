// Copyright (c) dimmunix-cpp authors. MIT license.

#include "src/stack/capture.h"

#include <dlfcn.h>
#include <execinfo.h>
#include <link.h>

#include <algorithm>
#include <cstdint>
#include <cstring>

#include "src/common/hash.h"
#include "src/stack/annotation.h"

// glibc >= 2.35 declares _dl_find_object (and, with it, these macros).
#if defined(__GLIBC__) && defined(DLFO_STRUCT_HAS_EH_DBASE)
#define DIMMUNIX_HAVE_DL_FIND_OBJECT 1
#else
#define DIMMUNIX_HAVE_DL_FIND_OBJECT 0
#endif

namespace dimmunix {
namespace {

// The pthreads frame (§6) as dladdr defines it: the hash of the module's
// file name and the return address's offset from the module base. An
// address outside every module keeps its raw value and module hash 0.
Frame DladdrFrame(const void* addr) {
  Dl_info info{};
  std::uint64_t module_hash = 0;
  std::uint64_t offset = reinterpret_cast<std::uint64_t>(addr);
  if (dladdr(addr, &info) != 0 && info.dli_fbase != nullptr) {
    offset -= reinterpret_cast<std::uint64_t>(info.dli_fbase);
    if (info.dli_fname != nullptr) {
      module_hash = Fnv1a64(info.dli_fname, std::char_traits<char>::length(info.dli_fname));
    }
  }
  return FrameFromModuleOffset(module_hash, offset);
}

#if DIMMUNIX_HAVE_DL_FIND_OBJECT

// Per-thread module-name hashes, keyed by link map and checked against the
// map's current l_name, so a module loaded where an unloaded one was never
// inherits its hash. dladdr names the main executable after argv[0] (its
// l_name is empty), which the hash taken from dladdr keeps. Trivially
// destructible: captures may run while the thread's TLS is torn down.
constexpr int kModuleCacheEntries = 8;
constexpr std::size_t kModuleNameCap = 192;  // longer names are never cached

struct ModuleHashEntry {
  const link_map* map;
  std::uint64_t hash;
  char name[kModuleNameCap];
};

struct ModuleHashCache {
  ModuleHashEntry entries[kModuleCacheEntries];
  unsigned next;  // round-robin victim
};

thread_local ModuleHashCache t_modules;

// The module hash of `addr`, which _dl_find_object placed in `map` starting
// at `map_start`. False when dladdr disagrees about the module (the caller
// then uses DladdrFrame for this address).
bool ModuleHash(const link_map* map, const void* map_start, const void* addr,
                std::uint64_t* hash) {
  const char* l_name = map->l_name != nullptr ? map->l_name : "";
  for (const ModuleHashEntry& e : t_modules.entries) {
    if (e.map == map && std::strcmp(e.name, l_name) == 0) {
      *hash = e.hash;
      return true;
    }
  }
  Dl_info info{};
  if (dladdr(addr, &info) == 0 || info.dli_fbase != map_start) {
    return false;
  }
  *hash = info.dli_fname != nullptr
              ? Fnv1a64(info.dli_fname, std::char_traits<char>::length(info.dli_fname))
              : 0;
  const std::size_t len = std::strlen(l_name);
  if (len < kModuleNameCap) {
    ModuleHashEntry& e = t_modules.entries[t_modules.next++ % kModuleCacheEntries];
    e.map = map;
    e.hash = *hash;
    std::memcpy(e.name, l_name, len + 1);
  }
  return true;
}

#endif  // DIMMUNIX_HAVE_DL_FIND_OBJECT

}  // namespace

Frame NativeFrame(const void* return_address) {
#if DIMMUNIX_HAVE_DL_FIND_OBJECT
  // Lock-free and always current across dlopen/dlclose; its map start is
  // dladdr's dli_fbase.
  dl_find_object found;
  std::uint64_t module_hash = 0;
  if (_dl_find_object(const_cast<void*>(return_address), &found) == 0 &&
      ModuleHash(found.dlfo_link_map, found.dlfo_map_start, return_address, &module_hash)) {
    return FrameFromModuleOffset(module_hash,
                                 reinterpret_cast<std::uint64_t>(return_address) -
                                     reinterpret_cast<std::uint64_t>(found.dlfo_map_start));
  }
#endif
  return DladdrFrame(return_address);
}

std::vector<Frame> CaptureStack(int skip) {
  const std::vector<Frame>& annotated = ThreadAnnotationStack();
  if (!annotated.empty()) {
    // Annotation stack is outermost-first; the signature wants the suffix of
    // the call flow, so reverse it.
    std::vector<Frame> frames(annotated.rbegin(), annotated.rend());
    if (frames.size() > static_cast<std::size_t>(kMaxCapturedFrames)) {
      frames.resize(kMaxCapturedFrames);
    }
    return frames;
  }
  return CaptureNativeStack(skip + 1);
}

std::vector<Frame> CaptureNativeStack(int skip) {
  void* addrs[kMaxCapturedFrames + 8];
  const int n = backtrace(addrs, kMaxCapturedFrames + 8);
  std::vector<Frame> frames;
  frames.reserve(static_cast<std::size_t>(std::max(0, n - skip)));
  for (int i = skip; i < n && frames.size() < kMaxCapturedFrames; ++i) {
    frames.push_back(NativeFrame(addrs[i]));
  }
  return frames;
}

}  // namespace dimmunix

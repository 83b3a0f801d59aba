// Copyright (c) dimmunix-cpp authors. MIT license.
//
// A small shared module that identity_test dlopens and dlcloses: its one
// function calls back into the test, so a stack captured in the callback
// has a frame inside this module. CMake builds it twice under two file
// names, so a test can load a different module where an unloaded one was.

extern "C" __attribute__((noinline, visibility("default"))) int dimmunix_test_module_call(
    int (*callback)(void*), void* arg) {
  // Not a tail call: this frame stays on the stack during the callback.
  return callback(arg) + 1;
}

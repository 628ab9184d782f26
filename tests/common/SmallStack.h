//===- tests/common/SmallStack.h - Run code on a small stack ----*- C++ -*-===//
///
/// \file
/// Runs a callable on one thread with a deliberately small stack, so a
/// test can show that a walk's depth is bounded by memory rather than by
/// the calling thread's stack.
///
//===----------------------------------------------------------------------===//

#ifndef IPG_TESTS_COMMON_SMALLSTACK_H
#define IPG_TESTS_COMMON_SMALLSTACK_H

#include <pthread.h>

#include <cstddef>
#include <functional>

namespace ipg::testing {

/// Runs \p Fn on one thread whose stack is \p StackBytes, and joins it.
/// False when the thread could not be started.
inline bool runOnSmallStack(size_t StackBytes, std::function<void()> Fn) {
  pthread_attr_t Attr;
  if (pthread_attr_init(&Attr) != 0)
    return false;
  bool Ok = pthread_attr_setstacksize(&Attr, StackBytes) == 0;
  pthread_t Thread;
  Ok = Ok && pthread_create(
                 &Thread, &Attr,
                 [](void *Arg) -> void * {
                   (*static_cast<std::function<void()> *>(Arg))();
                   return nullptr;
                 },
                 &Fn) == 0;
  pthread_attr_destroy(&Attr);
  return Ok && pthread_join(Thread, nullptr) == 0;
}

} // namespace ipg::testing

#endif // IPG_TESTS_COMMON_SMALLSTACK_H

//===- tests/lr/CountingNew.h - Counting global operator new ----*- C++ -*-===//
///
/// \file
/// The allocation counter of CountingNew.cpp, which replaces the global
/// operator new of any executable it is linked into.
///
//===----------------------------------------------------------------------===//

#ifndef IPG_TESTS_LR_COUNTINGNEW_H
#define IPG_TESTS_LR_COUNTINGNEW_H

namespace ipg::testing {

/// Number of global operator new calls (every form) since process start.
unsigned long long allocationCount();

} // namespace ipg::testing

#endif // IPG_TESTS_LR_COUNTINGNEW_H

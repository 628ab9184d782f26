//===- perfbench/src/Allocs.h - Heap-allocation counter --------*- C++ -*-===//
///
/// \file
/// The count of global operator new calls behind the per-layer *.allocs
/// metrics. The traced binary links AllocsCounting.cpp, which replaces the
/// global operator new with a counting one (the HotPathAllocTest
/// technique); the plain binary links AllocsOff.cpp, where the count is
/// always zero and operator new is the standard library's.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_ALLOCS_H
#define PERFBENCH_ALLOCS_H

#include <cstdint>

namespace perfbench {

/// True in the binary whose operator new counts.
bool allocationsCounted();

/// Global operator new calls counted since process start (0 when not
/// counted).
uint64_t allocationCount();

/// Turns counting on (the default) or off, so untraced replays of the
/// traced binary pay nothing for it. No effect in the plain binary.
void setAllocationCounting(bool On);

} // namespace perfbench

#endif // PERFBENCH_ALLOCS_H

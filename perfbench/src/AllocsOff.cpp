//===- perfbench/src/AllocsOff.cpp - No allocation counting --------------===//
///
/// \file
/// The plain binary keeps the standard operator new, so its timings carry
/// no counting cost.
///
//===----------------------------------------------------------------------===//

#include "Allocs.h"

bool perfbench::allocationsCounted() { return false; }
uint64_t perfbench::allocationCount() { return 0; }
void perfbench::setAllocationCounting(bool) {}

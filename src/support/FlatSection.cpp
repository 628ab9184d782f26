//===- support/FlatSection.cpp - Flat, aligned binary sections ------------===//

#include "support/FlatSection.h"

#include "support/MappedFile.h"

using namespace ipg;

Expected<size_t> FlatWriter::writeFile(const std::string &Path) const {
  return writeBytesToFileAtomic(Path, Buffer.data(), Buffer.size());
}

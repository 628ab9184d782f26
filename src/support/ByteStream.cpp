//===- support/ByteStream.cpp - Binary snapshot encoding ------------------===//

#include "support/ByteStream.h"

#include <cstdio>
#include <filesystem>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#elif defined(_MSC_VER)
#include <process.h>
#endif

using namespace ipg;

Expected<size_t> ipg::writeBytesToFileAtomic(const std::string &Path,
                                             const void *Data, size_t Size) {
  // Write-then-rename: a snapshot being overwritten may still back a live
  // MAP_PRIVATE mapping (an adopted graph borrows its clean pages), and
  // truncating the mapped inode in place would SIGBUS the borrower. The
  // rename swaps the directory entry while the old inode lives on for as
  // long as the mapping holds it. The temp name is per-process so
  // concurrent savers (the CI determinism job's paired builds) cannot
  // interleave partial writes.
#if defined(__unix__) || defined(__APPLE__)
  const long Pid = static_cast<long>(::getpid());
#elif defined(_MSC_VER)
  const long Pid = static_cast<long>(_getpid());
#else
  const long Pid = 0; // Exotic host: no cross-process uniqueness.
#endif
  const std::string TmpPath = Path + ".tmp." + std::to_string(Pid);
  std::FILE *File = std::fopen(TmpPath.c_str(), "wb");
  if (File == nullptr)
    return Error("cannot open '" + TmpPath + "' for writing");
  size_t Written = Size == 0 ? 0 : std::fwrite(Data, 1, Size, File);
  bool CloseOk = std::fclose(File) == 0;
  if (Written != Size || !CloseOk) {
    std::remove(TmpPath.c_str());
    return Error("short write to '" + TmpPath + "'");
  }
  // std::filesystem::rename replaces an existing target atomically on
  // POSIX and Windows alike (plain std::rename fails on Windows when the
  // target exists, and a remove-then-rename window would lose the old
  // snapshot on a crash or a failed rename).
  std::error_code Ec;
  std::filesystem::rename(TmpPath, Path, Ec);
  if (Ec) {
    std::remove(TmpPath.c_str());
    return Error("cannot rename '" + TmpPath + "' to '" + Path + "': " +
                 Ec.message());
  }
  return Written;
}

Expected<std::vector<uint8_t>> ipg::readFileBytes(const std::string &Path) {
  std::FILE *File = std::fopen(Path.c_str(), "rb");
  if (File == nullptr)
    return Error("cannot open '" + Path + "' for reading");
  std::vector<uint8_t> Bytes;
  uint8_t Chunk[64 * 1024];
  size_t Read;
  while ((Read = std::fread(Chunk, 1, sizeof(Chunk), File)) > 0)
    Bytes.insert(Bytes.end(), Chunk, Chunk + Read);
  bool ReadOk = std::ferror(File) == 0;
  std::fclose(File);
  if (!ReadOk)
    return Error("read error on '" + Path + "'");
  return Bytes;
}

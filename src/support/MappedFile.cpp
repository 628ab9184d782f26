//===- support/MappedFile.cpp - Private file mapping for snapshots --------===//

#include "support/MappedFile.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>

#if defined(_MSC_VER)
#include <malloc.h>
#include <process.h>
#endif

#if defined(__unix__) || defined(__APPLE__)
#define IPG_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define IPG_HAVE_MMAP 0
#endif

using namespace ipg;

Expected<MappedFile> MappedFile::open(const std::string &Path) {
#if IPG_HAVE_MMAP
  int Fd = ::open(Path.c_str(), O_RDONLY);
  if (Fd < 0)
    return Error("cannot open '" + Path + "' for mapping");
  struct stat St;
  if (::fstat(Fd, &St) != 0 || St.st_size < 0) {
    ::close(Fd);
    return Error("cannot stat '" + Path + "'");
  }
  size_t Size = static_cast<size_t>(St.st_size);
  if (Size == 0) {
    ::close(Fd);
    return Error("'" + Path + "' is empty");
  }
  // PROT_WRITE + MAP_PRIVATE: a stale-snapshot load rewrites ids in
  // place; the kernel copies only the touched pages and the file itself is
  // never modified.
  void *Base =
      ::mmap(nullptr, Size, PROT_READ | PROT_WRITE, MAP_PRIVATE, Fd, 0);
  ::close(Fd); // The mapping holds its own reference.
  if (Base == MAP_FAILED)
    return Error("mmap of '" + Path + "' failed");
  MappedFile File;
  File.Base = static_cast<uint8_t *>(Base);
  File.Bytes = Size;
  File.HeapFallback = false;
  return File;
#else
  std::FILE *Stream = std::fopen(Path.c_str(), "rb");
  if (Stream == nullptr)
    return Error("cannot open '" + Path + "' for reading");
  std::fseek(Stream, 0, SEEK_END);
  long End = std::ftell(Stream);
  if (End <= 0) {
    std::fclose(Stream);
    return Error("'" + Path + "' is empty");
  }
  std::fseek(Stream, 0, SEEK_SET);
  size_t Size = static_cast<size_t>(End);
  // The backing buffer must honour the flat layout's 8-byte record
  // alignment. MSVC's CRT has no aligned_alloc (its free() cannot release
  // such blocks), so the fallback's fallback is _aligned_malloc.
  size_t Rounded = (Size + 7) & ~size_t(7);
#if defined(_MSC_VER)
  void *Base = _aligned_malloc(Rounded, 8);
#else
  void *Base = std::aligned_alloc(8, Rounded);
#endif
  if (Base == nullptr) {
    std::fclose(Stream);
    return Error("out of memory mapping '" + Path + "'");
  }
  size_t Read = std::fread(Base, 1, Size, Stream);
  std::fclose(Stream);
  if (Read != Size) {
    freeHeapBuffer(Base);
    return Error("short read from '" + Path + "'");
  }
  MappedFile File;
  File.Base = static_cast<uint8_t *>(Base);
  File.Bytes = Size;
  File.HeapFallback = true;
  return File;
#endif
}

Expected<MappedFile> MappedFile::copyOf(const void *Data, size_t Size) {
  if (Size == 0)
    return Error("cannot map an empty buffer");
  // Same allocation discipline as open()'s heap fallback: 8-byte-aligned
  // for the flat layout's record alignment, sized up to a multiple of 8
  // because aligned_alloc requires it.
  size_t Rounded = (Size + 7) & ~size_t(7);
#if defined(_MSC_VER)
  void *Base = _aligned_malloc(Rounded, 8);
#else
  void *Base = std::aligned_alloc(8, Rounded);
#endif
  if (Base == nullptr)
    return Error("out of memory copying a snapshot buffer");
  std::memcpy(Base, Data, Size);
  MappedFile File;
  File.Base = static_cast<uint8_t *>(Base);
  File.Bytes = Size;
  File.HeapFallback = true;
  return File;
}

void MappedFile::freeHeapBuffer(void *Ptr) {
#if defined(_MSC_VER)
  _aligned_free(Ptr);
#else
  std::free(Ptr);
#endif
}

void MappedFile::unmap() {
  if (Base == nullptr)
    return;
#if IPG_HAVE_MMAP
  if (HeapFallback)
    freeHeapBuffer(Base);
  else
    ::munmap(Base, Bytes);
#else
  freeHeapBuffer(Base);
#endif
  Base = nullptr;
  Bytes = 0;
  HeapFallback = false;
}

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

//===- support/MappedFile.cpp - Private file mapping for snapshots --------===//

#include "support/MappedFile.h"

#include <cstdlib>
#include <cstring>

#if defined(_MSC_VER)
#include <malloc.h>
#endif

#if defined(__unix__) || defined(__APPLE__)
#define IPG_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define IPG_HAVE_MMAP 0
#include <cstdio>
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

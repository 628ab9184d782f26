//===- support/TokenView.h - Cursor-bearing token-stream view ---*- C++ -*-===//
///
/// \file
/// The span-based token-input currency of every parse entry point: an
/// ArrayView<SymbolId> over the token buffer plus a cursor position. The
/// cursor is where parsing starts — 0 for a whole-input parse, a resume
/// point for the incremental machinery (incremental/ParseDocument.h),
/// which steps a suspended GSS from the first damaged token instead of
/// re-feeding the document from the front.
///
/// Implicitly constructible from std::vector<SymbolId>, so a caller holding
/// a token vector passes it straight to the single TokenView entry point
/// each engine exposes.
///
//===----------------------------------------------------------------------===//

#ifndef IPG_SUPPORT_TOKENVIEW_H
#define IPG_SUPPORT_TOKENVIEW_H

#include "grammar/Symbol.h"
#include "support/ArrayView.h"

#include <cassert>
#include <cstddef>
#include <vector>

namespace ipg {

/// A non-owning window into a token stream: the full buffer plus the
/// position parsing should (re)start from. A one-shot parser treats the
/// cursor as the start of its input — tokens before it are context it
/// never reads, and reported positions (error indices, forest spans)
/// count from the cursor. Whole-buffer parses (cursor 0, e.g. a converted
/// token vector) read every token.
class TokenView {
public:
  TokenView() = default;
  TokenView(ArrayView<SymbolId> Tokens, size_t Cursor = 0)
      : Toks(Tokens), Pos(Cursor) {
    assert(Pos <= Toks.size() && "cursor past end of token buffer");
  }
  /// Implicit on purpose: token vectors convert at every parse call.
  TokenView(const std::vector<SymbolId> &V) : Toks(V) {}
  TokenView(const SymbolId *Data, size_t Size, size_t Cursor = 0)
      : Toks(Data, Size), Pos(Cursor) {
    assert(Pos <= Toks.size() && "cursor past end of token buffer");
  }

  /// The whole underlying buffer, cursor-independent.
  ArrayView<SymbolId> tokens() const { return Toks; }
  /// Absolute index parsing starts from.
  size_t cursor() const { return Pos; }
  /// Total tokens in the buffer (not: remaining after the cursor).
  size_t size() const { return Toks.size(); }
  /// Tokens at or after the cursor.
  size_t remaining() const { return Toks.size() - Pos; }
  bool empty() const { return Toks.empty(); }
  bool atEnd() const { return Pos == Toks.size(); }

  const SymbolId *data() const { return Toks.data(); }
  /// Absolute indexing into the buffer.
  SymbolId operator[](size_t I) const { return Toks[I]; }

  /// The token under the cursor.
  SymbolId peek() const { return Toks[Pos]; }
  /// A view over the same buffer with the cursor moved forward.
  TokenView advanced(size_t N) const {
    return TokenView(Toks, Pos + N);
  }

private:
  ArrayView<SymbolId> Toks;
  size_t Pos = 0;
};

} // namespace ipg

#endif // IPG_SUPPORT_TOKENVIEW_H

//! A small Rust lexer that is exact about the three things the rule
//! engine cares about and deliberately loose about everything else:
//!
//! 1. **Comments** (line, nested block) are tokenized, not skipped —
//!    waivers (`// lint:allow(...)`) live in them.
//! 2. **Strings** (cooked, raw `r#"…"#`, byte, byte-raw) are single
//!    tokens carrying their inner text, so `"call .sum::<f32>() here"`
//!    never looks like a method call and metric-name literals can be read back.
//! 3. **Everything else** is identifiers, lifetimes, numbers and
//!    one-character punctuation with exact line/column positions.
//!
//! The lexer never fails: unterminated constructs extend to end of file,
//! which is the most useful behaviour for a diagnostic tool.

/// Kind of a lexed token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`sum`, `lock`, `fn`, raw `r#type`).
    Ident,
    /// Lifetime such as `'a` (also labels like `'outer`).
    Lifetime,
    /// String literal of any flavour; `text` holds the *inner* content.
    Str,
    /// Character or byte literal (`'x'`, `b'\n'`).
    Char,
    /// Numeric literal (integers, floats, with suffixes).
    Num,
    /// Single punctuation character (`.`, `(`, `!`, `{`, …).
    Punct,
    /// `// …` comment; `text` holds the content after the slashes.
    LineComment,
    /// `/* … */` comment (nesting-aware); `text` holds the inner content.
    BlockComment,
}

/// One token with its 1-based source position.
#[derive(Debug, Clone)]
pub struct Tok {
    pub kind: TokKind,
    pub text: String,
    pub line: u32,
    pub col: u32,
}

impl Tok {
    /// True for a punctuation token equal to `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct && self.text.len() == 1 && self.text.starts_with(c)
    }

    /// True for an identifier token equal to `name`.
    pub fn is_ident(&self, name: &str) -> bool {
        self.kind == TokKind::Ident && self.text == name
    }

    /// True for comment tokens of either flavour.
    pub fn is_comment(&self) -> bool {
        matches!(self.kind, TokKind::LineComment | TokKind::BlockComment)
    }
}

struct Cursor<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
    col: u32,
}

impl<'a> Cursor<'a> {
    fn new(src: &'a str) -> Cursor<'a> {
        Cursor {
            src: src.as_bytes(),
            pos: 0,
            line: 1,
            col: 1,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.src.get(self.pos + 1).copied()
    }

    fn peek_at(&self, off: usize) -> Option<u8> {
        self.src.get(self.pos + off).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
            self.col = 1;
        } else if b & 0xC0 != 0x80 {
            // Count code points, not bytes, so columns match editors.
            self.col += 1;
        }
        Some(b)
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

/// Tokenize `src`. Never fails; see module docs for the guarantees.
pub fn lex(src: &str) -> Vec<Tok> {
    let mut cur = Cursor::new(src);
    let mut toks = Vec::new();
    while let Some(b) = cur.peek() {
        let (line, col) = (cur.line, cur.col);
        match b {
            b' ' | b'\t' | b'\r' | b'\n' => {
                cur.bump();
            }
            b'/' if cur.peek2() == Some(b'/') => {
                cur.bump();
                cur.bump();
                let start = cur.pos;
                while let Some(c) = cur.peek() {
                    if c == b'\n' {
                        break;
                    }
                    cur.bump();
                }
                toks.push(tok(TokKind::LineComment, &cur, start, line, col));
            }
            b'/' if cur.peek2() == Some(b'*') => {
                cur.bump();
                cur.bump();
                let start = cur.pos;
                let mut depth = 1usize;
                let mut end = cur.pos;
                while let Some(c) = cur.peek() {
                    if c == b'/' && cur.peek2() == Some(b'*') {
                        depth += 1;
                        cur.bump();
                        cur.bump();
                    } else if c == b'*' && cur.peek2() == Some(b'/') {
                        depth -= 1;
                        end = cur.pos;
                        cur.bump();
                        cur.bump();
                        if depth == 0 {
                            break;
                        }
                    } else {
                        cur.bump();
                        end = cur.pos;
                    }
                }
                if depth > 0 {
                    end = cur.pos;
                }
                let text = String::from_utf8_lossy(&cur.src[start..end]).into_owned();
                toks.push(Tok {
                    kind: TokKind::BlockComment,
                    text,
                    line,
                    col,
                });
            }
            b'"' => {
                cur.bump();
                toks.push(cooked_string(&mut cur, line, col));
            }
            b'r' | b'b' => {
                if let Some(t) = raw_or_byte_prefix(&mut cur, line, col) {
                    toks.push(t);
                } else {
                    toks.push(ident(&mut cur, line, col));
                }
            }
            b'\'' => {
                toks.push(char_or_lifetime(&mut cur, line, col));
            }
            _ if is_ident_start(b) => {
                toks.push(ident(&mut cur, line, col));
            }
            _ if b.is_ascii_digit() => {
                toks.push(number(&mut cur, line, col));
            }
            _ => {
                cur.bump();
                toks.push(Tok {
                    kind: TokKind::Punct,
                    text: (b as char).to_string(),
                    line,
                    col,
                });
            }
        }
    }
    toks
}

fn tok(kind: TokKind, cur: &Cursor, start: usize, line: u32, col: u32) -> Tok {
    Tok {
        kind,
        text: String::from_utf8_lossy(&cur.src[start..cur.pos]).into_owned(),
        line,
        col,
    }
}

/// Cooked string body; the opening quote is already consumed.
fn cooked_string(cur: &mut Cursor, line: u32, col: u32) -> Tok {
    let start = cur.pos;
    let mut end = cur.pos;
    while let Some(c) = cur.peek() {
        if c == b'\\' {
            cur.bump();
            cur.bump();
            end = cur.pos;
        } else if c == b'"' {
            end = cur.pos;
            cur.bump();
            break;
        } else {
            cur.bump();
            end = cur.pos;
        }
    }
    Tok {
        kind: TokKind::Str,
        text: String::from_utf8_lossy(&cur.src[start..end]).into_owned(),
        line,
        col,
    }
}

/// Handle tokens starting with `r` or `b`: raw strings `r"…"`/`r#"…"#`,
/// byte strings `b"…"`, byte-raw `br#"…"#`, byte chars `b'…'`, and raw
/// identifiers `r#ident`. Returns `None` when the prefix is actually a
/// plain identifier (`result`, `bound`, …).
fn raw_or_byte_prefix(cur: &mut Cursor, line: u32, col: u32) -> Option<Tok> {
    let first = cur.peek()?;
    let mut off = 1usize;
    if first == b'b' && cur.peek_at(off) == Some(b'r') {
        off += 1;
    }
    // Count '#' for raw strings.
    let mut hashes = 0usize;
    while cur.peek_at(off + hashes) == Some(b'#') {
        hashes += 1;
    }
    let is_raw = first == b'r' || (first == b'b' && off == 2);
    match cur.peek_at(off + hashes) {
        Some(b'"') if is_raw || (first == b'b' && hashes == 0) => {
            for _ in 0..off + hashes + 1 {
                cur.bump();
            }
            if is_raw {
                Some(raw_string_body(cur, hashes, line, col))
            } else {
                Some(cooked_string(cur, line, col))
            }
        }
        Some(b'\'') if first == b'b' && off == 1 && hashes == 0 => {
            cur.bump();
            cur.bump();
            Some(char_body(cur, line, col))
        }
        Some(c) if first == b'r' && hashes == 1 && is_ident_start(c) => {
            // Raw identifier `r#type`: keep the `r#` in the token text so
            // keyword matching (the parser's `fn`/`impl` scan, O1's `fn`
            // check) never fires on an identifier that merely *names* a
            // keyword.
            cur.bump();
            cur.bump();
            let mut t = ident(cur, line, col);
            t.text.insert_str(0, "r#");
            Some(t)
        }
        _ => None,
    }
}

/// Raw string body after the opening quote; terminated by `"` + `hashes`
/// trailing `#` characters.
fn raw_string_body(cur: &mut Cursor, hashes: usize, line: u32, col: u32) -> Tok {
    let start = cur.pos;
    let mut end = cur.pos;
    while let Some(c) = cur.peek() {
        if c == b'"' {
            let mut ok = true;
            for i in 0..hashes {
                if cur.peek_at(1 + i) != Some(b'#') {
                    ok = false;
                    break;
                }
            }
            if ok {
                end = cur.pos;
                for _ in 0..1 + hashes {
                    cur.bump();
                }
                break;
            }
        }
        cur.bump();
        end = cur.pos;
    }
    Tok {
        kind: TokKind::Str,
        text: String::from_utf8_lossy(&cur.src[start..end]).into_owned(),
        line,
        col,
    }
}

/// `'` already consumed: decide between a char literal and a lifetime.
fn char_or_lifetime(cur: &mut Cursor, line: u32, col: u32) -> Tok {
    cur.bump(); // the quote
    match cur.peek() {
        Some(c) if is_ident_start(c) && !c.is_ascii_digit() => {
            // `'a'` is a char; `'a` followed by anything but `'` is a
            // lifetime (or loop label).
            let mut len = 0usize;
            while let Some(n) = cur.peek_at(len) {
                if is_ident_continue(n) {
                    len += 1;
                } else {
                    break;
                }
            }
            if len == 1 && cur.peek_at(1) == Some(b'\'') {
                char_body(cur, line, col)
            } else {
                let start = cur.pos;
                for _ in 0..len {
                    cur.bump();
                }
                tok(TokKind::Lifetime, cur, start, line, col)
            }
        }
        _ => char_body(cur, line, col),
    }
}

/// Char literal body (after the opening quote), escape-aware.
fn char_body(cur: &mut Cursor, line: u32, col: u32) -> Tok {
    let start = cur.pos;
    let mut end = cur.pos;
    while let Some(c) = cur.peek() {
        if c == b'\\' {
            cur.bump();
            cur.bump();
            end = cur.pos;
        } else if c == b'\'' {
            end = cur.pos;
            cur.bump();
            break;
        } else if c == b'\n' {
            break; // Unterminated; don't eat the rest of the file.
        } else {
            cur.bump();
            end = cur.pos;
        }
    }
    Tok {
        kind: TokKind::Char,
        text: String::from_utf8_lossy(&cur.src[start..end]).into_owned(),
        line,
        col,
    }
}

fn ident(cur: &mut Cursor, line: u32, col: u32) -> Tok {
    let start = cur.pos;
    while let Some(c) = cur.peek() {
        if is_ident_continue(c) {
            cur.bump();
        } else {
            break;
        }
    }
    tok(TokKind::Ident, cur, start, line, col)
}

fn number(cur: &mut Cursor, line: u32, col: u32) -> Tok {
    let start = cur.pos;
    while let Some(c) = cur.peek() {
        if c.is_ascii_alphanumeric() || c == b'_' {
            let at_exp = matches!(c, b'e' | b'E')
                && matches!(cur.peek2(), Some(b'+') | Some(b'-'))
                && cur.src[start..cur.pos].contains(&b'.');
            cur.bump();
            if at_exp {
                cur.bump();
            }
        } else if c == b'.' {
            // `1.0` continues the number; `1.fold(…)` and `1..n` do not.
            match cur.peek2() {
                Some(d) if d.is_ascii_digit() => {
                    cur.bump();
                }
                _ => break,
            }
        } else {
            break;
        }
    }
    tok(TokKind::Num, cur, start, line, col)
}

/// Token index ranges covered by `#[cfg(test)]` / `#[test]` items.
///
/// The scan finds each such attribute, skips any further attributes, and
/// covers tokens through the end of the annotated item: the matching `}`
/// of its first body brace, or a terminating `;` for braceless items.
pub fn test_regions(toks: &[Tok]) -> Vec<(usize, usize)> {
    let mut regions: Vec<(usize, usize)> = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if let Some((attr_end, is_test)) = parse_attr(toks, i) {
            if is_test {
                let end = item_end(toks, attr_end + 1);
                regions.push((i, end));
                i = end + 1;
                continue;
            }
            i = attr_end + 1;
            continue;
        }
        i += 1;
    }
    regions
}

/// If `toks[i]` starts an attribute `#[…]`, return the index of the
/// closing `]` and whether the attribute marks test-only code
/// (`#[test]`, or any `cfg`/`cfg_attr` attribute mentioning `test`).
fn parse_attr(toks: &[Tok], i: usize) -> Option<(usize, bool)> {
    if !toks[i].is_punct('#') {
        return None;
    }
    let mut j = i + 1;
    while j < toks.len() && toks[j].is_comment() {
        j += 1;
    }
    if j >= toks.len() || !toks[j].is_punct('[') {
        return None;
    }
    let mut depth = 1usize;
    let mut mentions_test = false;
    let mut has_cfg = false;
    let mut first_ident: Option<&str> = None;
    let mut k = j + 1;
    while k < toks.len() {
        let t = &toks[k];
        if t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(']') {
            depth -= 1;
            if depth == 0 {
                break;
            }
        } else if t.kind == TokKind::Ident {
            if first_ident.is_none() {
                first_ident = Some(t.text.as_str());
            }
            if t.text == "cfg" || t.text == "cfg_attr" {
                has_cfg = true;
            }
            if t.text == "test" {
                mentions_test = true;
            }
        }
        k += 1;
    }
    if k >= toks.len() {
        return None;
    }
    let is_test_attr = match first_ident {
        Some("test") => true,
        _ => has_cfg && mentions_test,
    };
    Some((k, is_test_attr))
}

/// End index (inclusive) of the item starting after an attribute: skips
/// leading attributes/comments, then runs to the matching close of the
/// first `{` at depth zero, or to a `;` before any `{`.
fn item_end(toks: &[Tok], mut i: usize) -> usize {
    // Skip stacked attributes (`#[cfg(test)] #[allow(…)] mod t { … }`).
    while i < toks.len() {
        if toks[i].is_comment() {
            i += 1;
        } else if let Some((attr_end, _)) = parse_attr(toks, i) {
            i = attr_end + 1;
        } else {
            break;
        }
    }
    let mut depth = 0usize;
    let mut j = i;
    while j < toks.len() {
        let t = &toks[j];
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth = depth.saturating_sub(1);
            if depth == 0 {
                return j;
            }
        } else if t.is_punct(';') && depth == 0 {
            return j;
        }
        j += 1;
    }
    toks.len().saturating_sub(1)
}

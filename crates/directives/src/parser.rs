//! The token cursor both pragma families parse with, and the grammar of
//! the IMPACC directive extension, `#pragma acc mpi` (§3.5).

use std::fmt;

use impacc_core::MpiOpts;

/// A parsed `sendbuf(...)` / `recvbuf(...)` clause.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct BufClause {
    /// `device` attribute present.
    pub device: bool,
    /// `readonly` attribute present.
    pub readonly: bool,
}

/// A fully parsed `#pragma acc mpi` directive.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Directive {
    /// `sendbuf(...)`, if present.
    pub sendbuf: Option<BufClause>,
    /// `recvbuf(...)`, if present.
    pub recvbuf: Option<BufClause>,
    /// `async` clause: `None` = absent; `Some(None)` = bare `async`
    /// (default queue); `Some(Some(q))` = `async(q)`.
    pub asyncq: Option<Option<u32>>,
}

impl Directive {
    /// The runtime options this directive selects for a send-side call.
    /// Bare `async` maps to queue 0 (the OpenACC default queue).
    pub fn send_opts(&self) -> MpiOpts {
        let c = self.sendbuf.unwrap_or_default();
        MpiOpts {
            device: c.device,
            readonly: c.readonly,
            queue: self.asyncq.map(|q| q.unwrap_or(0)),
        }
    }

    /// The runtime options for a receive-side call.
    pub fn recv_opts(&self) -> MpiOpts {
        let c = self.recvbuf.unwrap_or_default();
        MpiOpts {
            device: c.device,
            readonly: c.readonly,
            queue: self.asyncq.map(|q| q.unwrap_or(0)),
        }
    }

    /// Check the directive against the MPI routine it annotates (§3.5:
    /// the directive applies to the immediately following MPI call).
    /// Refused: `sendbuf` on a receive, `recvbuf` on a send, `async` on
    /// anything but `MPI_Isend`/`MPI_Irecv` (only a non-blocking call is
    /// queued), and a `call` that is no `MPI_` routine.
    pub fn check_call(&self, call: &str) -> Result<(), String> {
        let (sends, recvs) = match call {
            "MPI_Send" | "MPI_Ssend" | "MPI_Rsend" | "MPI_Bsend" | "MPI_Isend" => (true, false),
            "MPI_Recv" | "MPI_Irecv" => (false, true),
            c if c.starts_with("MPI_") => (true, true),
            _ => {
                return Err(format!(
                    "the directive must annotate an MPI call, not '{call}'"
                ))
            }
        };
        if self.recvbuf.is_some() && !recvs {
            return Err(format!("recvbuf clause on send call {call}"));
        }
        if self.sendbuf.is_some() && !sends {
            return Err(format!("sendbuf clause on receive call {call}"));
        }
        if self.asyncq.is_some() && !matches!(call, "MPI_Isend" | "MPI_Irecv") {
            return Err(format!(
                "async clause on {call}: only MPI_Isend and MPI_Irecv are queued"
            ));
        }
        Ok(())
    }

    /// Render back to canonical directive text.
    pub fn render(&self) -> String {
        let mut out = String::from("#pragma acc mpi");
        let buf = |name: &str, c: &BufClause| {
            let mut attrs = Vec::new();
            if c.device {
                attrs.push("device");
            }
            if c.readonly {
                attrs.push("readonly");
            }
            format!(" {}({})", name, attrs.join(", "))
        };
        if let Some(c) = &self.sendbuf {
            out.push_str(&buf("sendbuf", c));
        }
        if let Some(c) = &self.recvbuf {
            out.push_str(&buf("recvbuf", c));
        }
        match self.asyncq {
            None => {}
            Some(None) => out.push_str(" async"),
            Some(Some(q)) => out.push_str(&format!(" async({q})")),
        }
        out
    }
}

/// A parse failure, with the byte offset where it was detected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the directive text.
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "directive parse error at byte {}: {}",
            self.at, self.message
        )
    }
}

impl std::error::Error for ParseError {}

pub(crate) fn err(at: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        at,
        message: message.into(),
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Tok<'a> {
    Ident(&'a str),
    Int(u32),
    LParen,
    RParen,
    Comma,
    /// An operator/punctuation symbol (`+ - * / :`), as used by
    /// `reduction(+:x)` clauses.
    Sym(char),
}

/// A token cursor over one pragma line. Every error either points at the
/// token it stopped on or, past the last one, at the line's end.
pub(crate) struct Cursor<'a> {
    len: usize,
    toks: Vec<(usize, Tok<'a>)>,
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// Tokenize `line`. A byte is read as the `char` of its value, so a
    /// non-ASCII character is refused at its first byte.
    pub(crate) fn new(line: &'a str) -> Result<Cursor<'a>, ParseError> {
        let bytes = line.as_bytes();
        let ident = |b: u8| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'#');
        let mut toks = Vec::new();
        let mut i = 0;
        while i < bytes.len() {
            let (start, c) = (i, bytes[i] as char);
            i += 1;
            let tok = match c {
                c if c.is_whitespace() => continue,
                '(' => Tok::LParen,
                ')' => Tok::RParen,
                ',' => Tok::Comma,
                '+' | '-' | '*' | '/' | ':' => Tok::Sym(c),
                c if c.is_ascii_alphabetic() || c == '_' || c == '#' => {
                    while i < bytes.len() && ident(bytes[i]) {
                        i += 1;
                    }
                    Tok::Ident(&line[start..i])
                }
                c if c.is_ascii_digit() => {
                    while i < bytes.len() && bytes[i].is_ascii_digit() {
                        i += 1;
                    }
                    let text = &line[start..i];
                    let range = || err(start, format!("integer literal out of range: {text}"));
                    Tok::Int(text.parse().map_err(|_| range())?)
                }
                _ => {
                    return Err(err(start, format!("unexpected character '{c}'")));
                }
            };
            toks.push((start, tok));
        }
        Ok(Cursor {
            len: line.len(),
            toks,
            pos: 0,
        })
    }

    /// The token `ahead` places past the next one.
    pub(crate) fn peek(&self, ahead: usize) -> Option<Tok<'a>> {
        self.toks.get(self.pos + ahead).map(|&(_, t)| t)
    }

    /// The identifier `ahead` places past the next token, if it is one.
    pub(crate) fn word(&self, ahead: usize) -> Option<&'a str> {
        match self.peek(ahead) {
            Some(Tok::Ident(w)) => Some(w),
            _ => None,
        }
    }

    /// The offset of the next token, or the line's end.
    pub(crate) fn at(&self) -> usize {
        self.toks.get(self.pos).map_or(self.len, |&(at, _)| at)
    }

    /// The line's end, where an error past the last token points.
    pub(crate) fn end(&self) -> usize {
        self.len
    }

    pub(crate) fn skip(&mut self, n: usize) {
        self.pos += n;
    }

    /// Consume the next token if it is `want`.
    pub(crate) fn eat(&mut self, want: Tok) -> bool {
        let hit = self.peek(0) == Some(want);
        self.pos += usize::from(hit);
        hit
    }

    /// Consume `words` in order, or name the first one missing.
    pub(crate) fn header(&mut self, words: &[&'static str]) -> Result<(), &'static str> {
        match words.iter().find(|&&w| !self.eat(Tok::Ident(w))) {
            Some(w) => Err(w),
            None => Ok(()),
        }
    }

    /// "expected `what`, found" the next token or the end of the line.
    pub(crate) fn expected(&self, what: &str) -> ParseError {
        match self.peek(0) {
            Some(t) => err(self.at(), format!("expected {what}, found {t:?}")),
            None => err(self.len, format!("expected {what}, found end of line")),
        }
    }

    pub(crate) fn expect(&mut self, want: Tok) -> Result<(), ParseError> {
        if self.eat(want) {
            Ok(())
        } else {
            Err(self.expected(&format!("{want:?}")))
        }
    }

    /// The next clause name and its offset; `None` at the end of the line.
    pub(crate) fn clause(&mut self) -> Result<Option<(usize, &'a str)>, ParseError> {
        match self.peek(0) {
            None => Ok(None),
            Some(Tok::Ident(name)) => {
                let at = self.at();
                self.pos += 1;
                Ok(Some((at, name)))
            }
            Some(t) => Err(err(self.at(), format!("expected a clause, found {t:?}"))),
        }
    }

    /// One item `pick` accepts: "`what`, found" any other token, or
    /// `unterminated` at the end of the line.
    pub(crate) fn item<T>(
        &mut self,
        pick: impl Fn(Tok<'a>) -> Option<T>,
        what: &str,
        unterminated: &str,
    ) -> Result<T, ParseError> {
        let t = self.peek(0).ok_or_else(|| err(self.len, unterminated))?;
        let v = pick(t).ok_or_else(|| err(self.at(), format!("{what}, found {t:?}")))?;
        self.pos += 1;
        Ok(v)
    }

    /// Comma-separated items up to the closing `)` (the `(` is consumed).
    pub(crate) fn list<T>(
        &mut self,
        pick: impl Fn(Tok<'a>) -> Option<T>,
        what: &str,
        unterminated: &str,
    ) -> Result<Vec<T>, ParseError> {
        let mut out = Vec::new();
        loop {
            out.push(self.item(&pick, what, unterminated)?);
            if self.eat(Tok::RParen) {
                return Ok(out);
            }
            if !self.eat(Tok::Comma) {
                return Err(err(self.len, "expected ',' or ')'"));
            }
        }
    }
}

pub(crate) fn int(t: Tok) -> Option<u32> {
    match t {
        Tok::Int(v) => Some(v),
        _ => None,
    }
}

/// Parse one directive line, e.g.
/// `#pragma acc mpi sendbuf(device, readonly) async(1)`.
pub fn parse_directive(line: &str) -> Result<Directive, ParseError> {
    let mut c = Cursor::new(line)?;
    c.header(&["#pragma", "acc", "mpi"])
        .map_err(|w| c.expected(&format!("'{w}'")))?;
    let mut d = Directive::default();
    while let Some((at, name)) = c.clause()? {
        match name {
            "sendbuf" | "recvbuf" => {
                let clause = buf_clause(&mut c)?;
                let slot = match name {
                    "sendbuf" => &mut d.sendbuf,
                    _ => &mut d.recvbuf,
                };
                if slot.replace(clause).is_some() {
                    return Err(err(at, format!("duplicate '{name}' clause")));
                }
            }
            "async" => {
                if d.asyncq.is_some() {
                    return Err(err(at, "duplicate 'async' clause"));
                }
                let mut q = None;
                if c.eat(Tok::LParen) {
                    let what = "async expects a non-negative integer";
                    q = Some(c.item(int, what, "unterminated async clause")?);
                    if !c.eat(Tok::RParen) {
                        return Err(err(c.end(), "expected ')' after async queue"));
                    }
                }
                d.asyncq = Some(q);
            }
            other => {
                return Err(err(
                    at,
                    format!("unknown clause '{other}' (expected sendbuf, recvbuf or async)"),
                ))
            }
        }
    }
    if d == Directive::default() {
        return Err(err(c.end(), "directive has no clauses"));
    }
    Ok(d)
}

/// `( [device] [,] [readonly] )`, either order, each attribute at most
/// once; a comma may follow an attribute, not lead.
fn buf_clause(c: &mut Cursor) -> Result<BufClause, ParseError> {
    if !c.eat(Tok::LParen) {
        return Err(err(c.end(), "expected '(' after buffer clause"));
    }
    let mut b = BufClause::default();
    loop {
        if c.eat(Tok::RParen) {
            return Ok(b);
        }
        if c.peek(0) == Some(Tok::Comma) {
            if b == BufClause::default() {
                return Err(err(c.at(), "leading comma in buffer clause"));
            }
            c.skip(1);
        }
        let at = c.at();
        let (name, slot) = match c.peek(0) {
            Some(Tok::Ident("device")) => ("device", &mut b.device),
            Some(Tok::Ident("readonly")) => ("readonly", &mut b.readonly),
            Some(Tok::Ident(other)) => {
                return Err(err(
                    at,
                    format!("unknown attribute '{other}' (expected device or readonly)"),
                ))
            }
            Some(Tok::RParen) => continue,
            Some(t) => return Err(err(at, format!("unexpected {t:?} in buffer clause"))),
            None => return Err(err(c.end(), "unterminated buffer clause")),
        };
        if std::mem::replace(slot, true) {
            return Err(err(at, format!("duplicate '{name}' attribute")));
        }
        c.skip(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_papers_examples() {
        // §3.5: "#pragma acc mpi sendbuf(device)"
        let d = parse_directive("#pragma acc mpi sendbuf(device)").unwrap();
        assert_eq!(
            d.sendbuf,
            Some(BufClause {
                device: true,
                readonly: false
            })
        );
        assert!(d.recvbuf.is_none() && d.asyncq.is_none());

        // Figure 4(c): "#pragma acc mpi sendbuf(device) async(1)"
        let d = parse_directive("#pragma acc mpi sendbuf(device) async(1)").unwrap();
        assert_eq!(d.asyncq, Some(Some(1)));
        let opts = d.send_opts();
        assert!(opts.device && !opts.readonly);
        assert_eq!(opts.queue, Some(1));

        // Figure 7 abbreviations expand to these:
        let d = parse_directive("#pragma acc mpi sendbuf(readonly)").unwrap();
        assert_eq!(
            d.send_opts(),
            MpiOpts {
                device: false,
                readonly: true,
                queue: None
            }
        );
        let d = parse_directive("#pragma acc mpi recvbuf(readonly)").unwrap();
        assert!(d.recv_opts().readonly);
    }

    #[test]
    fn both_attributes_with_and_without_comma() {
        for text in [
            "#pragma acc mpi sendbuf(device, readonly)",
            "#pragma acc mpi sendbuf(device readonly)",
            "#pragma acc mpi sendbuf( device , readonly )",
        ] {
            let d = parse_directive(text).unwrap();
            assert_eq!(
                d.sendbuf,
                Some(BufClause {
                    device: true,
                    readonly: true
                }),
                "{text}"
            );
        }
    }

    #[test]
    fn bare_async_uses_default_queue() {
        let d = parse_directive("#pragma acc mpi recvbuf(device) async").unwrap();
        assert_eq!(d.asyncq, Some(None));
        assert_eq!(d.recv_opts().queue, Some(0));
    }

    #[test]
    fn empty_buffer_clause_is_legal() {
        // Grammar: both attributes are optional.
        let d = parse_directive("#pragma acc mpi sendbuf()").unwrap();
        assert_eq!(d.sendbuf, Some(BufClause::default()));
    }

    #[test]
    fn send_and_recv_in_one_directive() {
        // e.g. annotating an MPI_Sendrecv.
        let d =
            parse_directive("#pragma acc mpi sendbuf(device) recvbuf(device, readonly) async(3)")
                .unwrap();
        assert!(d.send_opts().device);
        assert!(d.recv_opts().device && d.recv_opts().readonly);
        assert_eq!(d.send_opts().queue, Some(3));
    }

    #[test]
    fn rejects_malformed_directives() {
        for (text, needle) in [
            ("#pragma acc mpi", "no clauses"),
            ("#pragma acc mpi sendbuf", "expected '('"),
            ("#pragma acc mpi sendbuf(device", "unterminated"),
            ("#pragma acc mpi sendbuf(writable)", "unknown attribute"),
            ("#pragma acc mpi foo(device)", "unknown clause"),
            ("#pragma acc mpi async(x)", "non-negative integer"),
            ("#pragma acc mpi async(1", "expected ')'"),
            (
                "#pragma acc mpi sendbuf(device) sendbuf(readonly)",
                "duplicate 'sendbuf'",
            ),
            ("#pragma acc mpi async async(1)", "duplicate 'async'"),
            (
                "#pragma acc mpi sendbuf(device,device)",
                "duplicate 'device'",
            ),
            ("#pragma acc mpi sendbuf(,device)", "leading comma"),
            ("#pragma omp parallel", "expected 'acc'"),
            ("#pragma acc mpi sendbuf(device) $", "unexpected character"),
        ] {
            let err = parse_directive(text).unwrap_err();
            assert!(
                err.message.contains(needle),
                "{text}: expected '{needle}' in '{}'",
                err.message
            );
        }
    }

    #[test]
    fn render_round_trips() {
        for text in [
            "#pragma acc mpi sendbuf(device)",
            "#pragma acc mpi sendbuf(device, readonly) async(2)",
            "#pragma acc mpi recvbuf(readonly) async",
            "#pragma acc mpi sendbuf(device) recvbuf(device) async(7)",
        ] {
            let d = parse_directive(text).unwrap();
            let d2 = parse_directive(&d.render()).unwrap();
            assert_eq!(d, d2, "{text}");
        }
    }

    #[test]
    fn scans_figure_4c_cleanly() {
        // Figure 4(c): the two `acc mpi` lines and the calls they annotate.
        let send = parse_directive("#pragma acc mpi sendbuf(device) async(1)").unwrap();
        let recv = parse_directive("#pragma acc mpi recvbuf(device) async(1)").unwrap();
        assert_eq!(send.check_call("MPI_Isend"), Ok(()));
        assert_eq!(recv.check_call("MPI_Irecv"), Ok(()));
        assert_eq!(send.send_opts().queue, Some(1));
        assert!(send.send_opts().device);
        assert!(recv.recv_opts().device);
        assert_eq!(recv.recv_opts().queue, Some(1));
    }

    #[test]
    fn figure7_readonly_pair() {
        let send = parse_directive("#pragma acc mpi sendbuf(readonly)").unwrap();
        let recv = parse_directive("#pragma acc mpi recvbuf(readonly)").unwrap();
        assert_eq!(send.check_call("MPI_Send"), Ok(()));
        assert_eq!(recv.check_call("MPI_Recv"), Ok(()));
        assert!(send.send_opts().readonly && !send.send_opts().device);
        assert!(recv.recv_opts().readonly && !recv.recv_opts().device);
    }

    #[test]
    fn flags_missing_call() {
        let d = parse_directive("#pragma acc mpi sendbuf(device)").unwrap();
        let e = d.check_call("int").unwrap_err();
        assert!(e.contains("must annotate an MPI call"), "{e}");
    }

    #[test]
    fn flags_clause_call_mismatch() {
        let d = parse_directive("#pragma acc mpi recvbuf(device)").unwrap();
        assert_eq!(
            d.check_call("MPI_Isend"),
            Err("recvbuf clause on send call MPI_Isend".into())
        );
        let d = parse_directive("#pragma acc mpi sendbuf(device)").unwrap();
        assert_eq!(
            d.check_call("MPI_Irecv"),
            Err("sendbuf clause on receive call MPI_Irecv".into())
        );
    }

    #[test]
    fn flags_async_on_blocking_call() {
        let d = parse_directive("#pragma acc mpi sendbuf(device) async(1)").unwrap();
        let e = d.check_call("MPI_Send").unwrap_err();
        assert!(e.starts_with("async clause on MPI_Send"), "{e}");
        assert_eq!(d.check_call("MPI_Isend"), Ok(()));
    }

    #[test]
    fn parse_errors_carry_byte_offsets() {
        let line = "  #pragma acc mpi sendbuf(writable)";
        let e = parse_directive(line).unwrap_err();
        assert!(e.message.contains("unknown attribute"), "{}", e.message);
        assert_eq!(e.at, line.find("writable").unwrap());
    }

    #[test]
    fn bcast_is_accepted_for_aliasing() {
        let d = parse_directive("#pragma acc mpi sendbuf(readonly) recvbuf(readonly)").unwrap();
        assert_eq!(d.check_call("MPI_Bcast"), Ok(()));
        assert!(d.send_opts().readonly && d.recv_opts().readonly);
    }

    #[test]
    fn other_pragmas_are_refused() {
        let e = parse_directive("#pragma omp parallel").unwrap_err();
        assert!(e.message.contains("expected 'acc'"), "{}", e.message);
        let e = parse_directive("#pragma acc kernels").unwrap_err();
        assert!(e.message.contains("'mpi'"), "{}", e.message);
    }
}

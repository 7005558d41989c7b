//! Tokenizer for the filter/configuration language.

use std::fmt;

/// A lexical token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Token {
    /// Identifier or keyword.
    Ident(String),
    /// Unsigned integer literal.
    Number(u64),
    /// Dotted-quad IPv4 address literal.
    IpAddr(u32),
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `;`
    Semi,
    /// `/`
    Slash,
    /// `~`
    Tilde,
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `!`
    Bang,
    /// `&&`
    AndAnd,
    /// `||`
    OrOr,
    /// `+`
    Plus,
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Ident(s) => write!(f, "{s}"),
            Token::Number(n) => write!(f, "{n}"),
            Token::IpAddr(a) => write!(f, "{}", std::net::Ipv4Addr::from(*a)),
            other => {
                let s = match other {
                    Token::LBrace => "{",
                    Token::RBrace => "}",
                    Token::LBracket => "[",
                    Token::RBracket => "]",
                    Token::LParen => "(",
                    Token::RParen => ")",
                    Token::Comma => ",",
                    Token::Semi => ";",
                    Token::Slash => "/",
                    Token::Tilde => "~",
                    Token::Eq => "=",
                    Token::Ne => "!=",
                    Token::Lt => "<",
                    Token::Le => "<=",
                    Token::Gt => ">",
                    Token::Ge => ">=",
                    Token::Bang => "!",
                    Token::AndAnd => "&&",
                    Token::OrOr => "||",
                    Token::Plus => "+",
                    _ => unreachable!(),
                };
                f.write_str(s)
            }
        }
    }
}

/// A lexing error with line information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct LexError {
    /// 1-based line number.
    pub(crate) line: usize,
    /// Description of the problem.
    pub(crate) message: String,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for LexError {}

/// A token together with the line it started on (for error reporting).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct SpannedToken {
    /// The token.
    pub(crate) token: Token,
    /// 1-based line number.
    pub(crate) line: usize,
}

/// Tokenizes the input. `#` starts a comment that runs to end of line.
pub(crate) fn tokenize(input: &str) -> Result<Vec<SpannedToken>, LexError> {
    let mut out = Vec::new();
    let bytes = input.as_bytes();
    let mut i = 0;
    let mut line = 1;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            ' ' | '\t' | '\r' => i += 1,
            '#' => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '{' => {
                out.push(SpannedToken {
                    token: Token::LBrace,
                    line,
                });
                i += 1;
            }
            '}' => {
                out.push(SpannedToken {
                    token: Token::RBrace,
                    line,
                });
                i += 1;
            }
            '[' => {
                out.push(SpannedToken {
                    token: Token::LBracket,
                    line,
                });
                i += 1;
            }
            ']' => {
                out.push(SpannedToken {
                    token: Token::RBracket,
                    line,
                });
                i += 1;
            }
            '(' => {
                out.push(SpannedToken {
                    token: Token::LParen,
                    line,
                });
                i += 1;
            }
            ')' => {
                out.push(SpannedToken {
                    token: Token::RParen,
                    line,
                });
                i += 1;
            }
            ',' => {
                out.push(SpannedToken {
                    token: Token::Comma,
                    line,
                });
                i += 1;
            }
            ';' => {
                out.push(SpannedToken {
                    token: Token::Semi,
                    line,
                });
                i += 1;
            }
            '/' => {
                out.push(SpannedToken {
                    token: Token::Slash,
                    line,
                });
                i += 1;
            }
            '~' => {
                out.push(SpannedToken {
                    token: Token::Tilde,
                    line,
                });
                i += 1;
            }
            '+' => {
                out.push(SpannedToken {
                    token: Token::Plus,
                    line,
                });
                i += 1;
            }
            '=' => {
                out.push(SpannedToken {
                    token: Token::Eq,
                    line,
                });
                i += 1;
            }
            '!' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    out.push(SpannedToken {
                        token: Token::Ne,
                        line,
                    });
                    i += 2;
                } else {
                    out.push(SpannedToken {
                        token: Token::Bang,
                        line,
                    });
                    i += 1;
                }
            }
            '<' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    out.push(SpannedToken {
                        token: Token::Le,
                        line,
                    });
                    i += 2;
                } else {
                    out.push(SpannedToken {
                        token: Token::Lt,
                        line,
                    });
                    i += 1;
                }
            }
            '>' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    out.push(SpannedToken {
                        token: Token::Ge,
                        line,
                    });
                    i += 2;
                } else {
                    out.push(SpannedToken {
                        token: Token::Gt,
                        line,
                    });
                    i += 1;
                }
            }
            '&' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'&' {
                    out.push(SpannedToken {
                        token: Token::AndAnd,
                        line,
                    });
                    i += 2;
                } else {
                    return Err(LexError {
                        line,
                        message: "expected `&&`".into(),
                    });
                }
            }
            '|' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'|' {
                    out.push(SpannedToken {
                        token: Token::OrOr,
                        line,
                    });
                    i += 2;
                } else {
                    return Err(LexError {
                        line,
                        message: "expected `||`".into(),
                    });
                }
            }
            c if c.is_ascii_digit() => {
                let start = i;
                while i < bytes.len() && (bytes[i] as char).is_ascii_digit() {
                    i += 1;
                }
                // Lookahead: a dotted quad (number '.' number '.' ...) is an
                // IP address literal.
                if i < bytes.len() && bytes[i] == b'.' {
                    let mut j = i;
                    let mut dots = 0;
                    while j < bytes.len()
                        && ((bytes[j] as char).is_ascii_digit() || bytes[j] == b'.')
                    {
                        if bytes[j] == b'.' {
                            dots += 1;
                        }
                        j += 1;
                    }
                    if dots == 3 {
                        let text = &input[start..j];
                        let addr: std::net::Ipv4Addr = text.parse().map_err(|_| LexError {
                            line,
                            message: format!("invalid IPv4 address `{text}`"),
                        })?;
                        out.push(SpannedToken {
                            token: Token::IpAddr(u32::from(addr)),
                            line,
                        });
                        i = j;
                        continue;
                    }
                }
                let text = &input[start..i];
                let value: u64 = text.parse().map_err(|_| LexError {
                    line,
                    message: format!("invalid number `{text}`"),
                })?;
                out.push(SpannedToken {
                    token: Token::Number(value),
                    line,
                });
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len() {
                    let ch = bytes[i] as char;
                    if ch.is_ascii_alphanumeric() || ch == '_' || ch == '.' {
                        i += 1;
                    } else {
                        break;
                    }
                }
                out.push(SpannedToken {
                    token: Token::Ident(input[start..i].to_string()),
                    line,
                });
            }
            other => {
                return Err(LexError {
                    line,
                    message: format!("unexpected character `{other}`"),
                });
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(input: &str) -> Vec<Token> {
        tokenize(input)
            .expect("lexes")
            .into_iter()
            .map(|t| t.token)
            .collect()
    }

    #[test]
    fn punctuation_and_operators() {
        assert_eq!(
            toks("{ } [ ] ( ) , ; / ~ = != < <= > >= ! && || +"),
            vec![
                Token::LBrace,
                Token::RBrace,
                Token::LBracket,
                Token::RBracket,
                Token::LParen,
                Token::RParen,
                Token::Comma,
                Token::Semi,
                Token::Slash,
                Token::Tilde,
                Token::Eq,
                Token::Ne,
                Token::Lt,
                Token::Le,
                Token::Gt,
                Token::Ge,
                Token::Bang,
                Token::AndAnd,
                Token::OrOr,
                Token::Plus,
            ]
        );
    }

    #[test]
    fn numbers_and_ip_addresses() {
        assert_eq!(
            toks("65001 10.0.0.1 208.65.152.0/22"),
            vec![
                Token::Number(65001),
                Token::IpAddr(0x0a000001),
                Token::IpAddr(u32::from_be_bytes([208, 65, 152, 0])),
                Token::Slash,
                Token::Number(22),
            ]
        );
    }

    #[test]
    fn identifiers_keep_dots() {
        assert_eq!(
            toks("filter customer_in net.len"),
            vec![
                Token::Ident("filter".into()),
                Token::Ident("customer_in".into()),
                Token::Ident("net.len".into()),
            ]
        );
    }

    #[test]
    fn comments_and_lines_are_tracked() {
        let toks = tokenize("accept; # trailing comment\nreject;").expect("lexes");
        assert_eq!(toks.len(), 4);
        assert_eq!(toks[0].line, 1);
        assert_eq!(toks[2].line, 2);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = tokenize("accept;\n$bad").expect_err("should fail");
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("unexpected character"));
        assert!(tokenize("a & b").is_err());
        assert!(tokenize("a | b").is_err());
        assert!(tokenize("999999999999999999999999").is_err());
    }
}

//! The FVM assembler: readable `.fasm` text → [`Module`].
//!
//! PAD programs in `fractal-pads` are written in this assembly dialect and
//! compiled at startup. The format is line-oriented:
//!
//! ```text
//! ; comment (also after instructions)
//! .memory 4                 ; linear memory in 64 KiB pages
//! .data 16 str:"hello"      ; data segment at offset 16
//! .data 32 hex:DEADBEEF     ; data segment from hex bytes
//!
//! .func decode args=6 locals=3
//! loop:                     ; labels are local to the function
//!     local.get 0
//!     push 0x100            ; push picks the narrowest encoding
//!     add
//!     jmpifz done
//!     call helper           ; call by function name (forward refs ok)
//!     host sha1             ; host intrinsics by mnemonic
//!     jmp loop
//! done:
//!     ret
//!
//! .func helper args=1 locals=0
//!     local.get 0
//!     ret
//! ```
//!
//! Every `.func` is exported under its name.

use std::collections::HashMap;

use crate::bytecode::{Op, PLAIN_OPS};
use crate::error::AsmError;
use crate::host::HostId;
use crate::module::{DataSegment, Function, Module};

/// One parsed-but-unresolved instruction.
enum Item {
    Op(Op),
    /// jmp/jmpif/jmpifz with a symbolic label; `kind` builds the op from
    /// its relative offset.
    Branch {
        kind: fn(i32) -> Op,
        label: String,
        line: usize,
    },
    /// call with a symbolic function name.
    Call {
        name: String,
        line: usize,
    },
    Label(String),
}

struct FuncBuilder {
    name: String,
    n_args: u8,
    n_locals: u8,
    items: Vec<Item>,
    decl_line: usize,
}

/// Assembles `.fasm` source into a [`Module`].
pub fn assemble(source: &str) -> Result<Module, AsmError> {
    let mut mem_pages: u16 = 1;
    let mut data: Vec<DataSegment> = Vec::new();
    let mut funcs: Vec<FuncBuilder> = Vec::new();

    for (idx, raw_line) in source.lines().enumerate() {
        let line_no = idx + 1;
        let err = |message: String| AsmError { line: line_no, message };
        let line = strip_comment(raw_line).trim();
        if line.is_empty() {
            continue;
        }

        if let Some(rest) = line.strip_prefix(".memory") {
            mem_pages = parse_int(rest.trim())
                .and_then(|v| u16::try_from(v).ok())
                .ok_or_else(|| err(format!("bad .memory operand {:?}", rest.trim())))?;
            continue;
        }
        if let Some(rest) = line.strip_prefix(".data") {
            let rest = rest.trim();
            let (off_s, payload) = rest
                .split_once(char::is_whitespace)
                .ok_or_else(|| err(".data needs offset and payload".into()))?;
            let offset = parse_int(off_s)
                .and_then(|v| u32::try_from(v).ok())
                .ok_or_else(|| err(format!("bad .data offset {off_s:?}")))?;
            let payload = payload.trim();
            let bytes = if let Some(hex) = payload.strip_prefix("hex:") {
                fractal_crypto::hex::decode(hex.trim())
                    .ok_or_else(|| err(format!("bad hex payload {hex:?}")))?
            } else if let Some(s) = payload.strip_prefix("str:") {
                let s = s.trim();
                let inner = s
                    .strip_prefix('"')
                    .and_then(|s| s.strip_suffix('"'))
                    .ok_or_else(|| err("str: payload must be double-quoted".into()))?;
                inner.as_bytes().to_vec()
            } else {
                return Err(err("payload must be hex:... or str:\"...\"".into()));
            };
            data.push(DataSegment { offset, bytes });
            continue;
        }
        if let Some(rest) = line.strip_prefix(".func") {
            let mut name = None;
            let mut n_args = 0u8;
            let mut n_locals = 0u8;
            for tok in rest.split_whitespace() {
                if let Some(v) = tok.strip_prefix("args=") {
                    n_args = v.parse().map_err(|_| err(format!("bad args count {v:?}")))?;
                } else if let Some(v) = tok.strip_prefix("locals=") {
                    n_locals = v.parse().map_err(|_| err(format!("bad locals count {v:?}")))?;
                } else if name.is_none() {
                    name = Some(tok.to_string());
                } else {
                    return Err(err(format!("unexpected token {tok:?} in .func")));
                }
            }
            let name = name.ok_or_else(|| err(".func needs a name".into()))?;
            if (n_args as u16 + n_locals as u16) > 255 {
                return Err(err("args + locals must fit in 255".into()));
            }
            funcs.push(FuncBuilder {
                name,
                n_args,
                n_locals,
                items: Vec::new(),
                decl_line: line_no,
            });
            continue;
        }
        if line.starts_with('.') {
            return Err(err(format!("unknown directive {line:?}")));
        }

        // Labels and instructions live inside a function.
        let func = funcs.last_mut().ok_or_else(|| err("instruction before any .func".into()))?;
        if let Some(label) = line.strip_suffix(':') {
            if label.contains(char::is_whitespace) {
                return Err(err(format!("bad label {label:?}")));
            }
            func.items.push(Item::Label(label.to_string()));
            continue;
        }
        let item = parse_instruction(line, line_no)?;
        func.items.push(item);
    }

    // Resolve function names to indices.
    let mut by_name: HashMap<&str, u16> = HashMap::new();
    for (i, f) in funcs.iter().enumerate() {
        if by_name.insert(f.name.as_str(), i as u16).is_some() {
            return Err(AsmError {
                line: f.decl_line,
                message: format!("duplicate function {:?}", f.name),
            });
        }
    }

    let mut functions = Vec::with_capacity(funcs.len());
    for f in &funcs {
        let code = encode_function(f, &by_name)?;
        functions.push(Function {
            name: f.name.clone(),
            n_args: f.n_args,
            n_locals: f.n_locals,
            code,
        });
    }

    Ok(Module { mem_pages, functions, data })
}

fn encode_function(f: &FuncBuilder, by_name: &HashMap<&str, u16>) -> Result<Vec<u8>, AsmError> {
    // Pass 1: lay out byte offsets; a branch or call has the size of its
    // op with any immediate.
    let mut labels: HashMap<&str, usize> = HashMap::new();
    let mut offset = 0usize;
    for item in &f.items {
        match item {
            Item::Label(name) => {
                if labels.insert(name.as_str(), offset).is_some() {
                    return Err(AsmError {
                        line: f.decl_line,
                        message: format!("duplicate label {name:?} in {}", f.name),
                    });
                }
            }
            Item::Op(op) => offset += op.encoded_len(),
            Item::Branch { kind, .. } => offset += kind(0).encoded_len(),
            Item::Call { .. } => offset += Op::Call(0).encoded_len(),
        }
    }

    // Pass 2: encode with resolved targets.
    let mut code = Vec::with_capacity(offset);
    for item in &f.items {
        match item {
            Item::Label(_) => {}
            Item::Op(op) => op.encode(&mut code),
            Item::Branch { kind, label, line } => {
                let target = *labels.get(label.as_str()).ok_or_else(|| AsmError {
                    line: *line,
                    message: format!("unknown label {label:?}"),
                })?;
                let after = code.len() + kind(0).encoded_len();
                let rel = target as i64 - after as i64;
                let rel = i32::try_from(rel).map_err(|_| AsmError {
                    line: *line,
                    message: "branch offset overflow".into(),
                })?;
                kind(rel).encode(&mut code);
            }
            Item::Call { name, line } => {
                let idx = *by_name.get(name.as_str()).ok_or_else(|| AsmError {
                    line: *line,
                    message: format!("unknown function {name:?}"),
                })?;
                Op::Call(idx).encode(&mut code);
            }
        }
    }
    Ok(code)
}

fn parse_instruction(line: &str, line_no: usize) -> Result<Item, AsmError> {
    let err = |message: String| AsmError { line: line_no, message };
    let mut parts = line.split_whitespace();
    let mnem = parts.next().expect("nonempty line");
    let operand = parts.next();
    if parts.next().is_some() {
        return Err(err(format!("too many operands for {mnem:?}")));
    }

    let need = || operand.ok_or_else(|| err(format!("{mnem} needs an operand")));
    let branch =
        |kind: fn(i32) -> Op| Ok(Item::Branch { kind, label: need()?.into(), line: line_no });
    let local_idx = |s: &str| -> Result<u8, AsmError> {
        parse_int(s)
            .and_then(|v| u8::try_from(v).ok())
            .ok_or_else(|| AsmError { line: line_no, message: format!("bad local index {s:?}") })
    };

    match mnem {
        "push" => {
            let s = need()?;
            let v = parse_int(s).ok_or_else(|| err(format!("bad integer {s:?}")))?;
            let op = if let Ok(b) = i8::try_from(v) {
                Op::PushI8(b)
            } else if let Ok(w) = i32::try_from(v) {
                Op::PushI32(w)
            } else {
                Op::PushI64(v)
            };
            Ok(Item::Op(op))
        }
        "local.get" => Ok(Item::Op(Op::LocalGet(local_idx(need()?)?))),
        "local.set" => Ok(Item::Op(Op::LocalSet(local_idx(need()?)?))),
        "local.tee" => Ok(Item::Op(Op::LocalTee(local_idx(need()?)?))),
        "jmp" => branch(Op::Jmp),
        "jmpif" => branch(Op::JmpIf),
        "jmpifz" => branch(Op::JmpIfZ),
        "call" => Ok(Item::Call { name: need()?.into(), line: line_no }),
        "host" => {
            let name = need()?;
            let host = HostId::from_mnemonic(name)
                .ok_or_else(|| err(format!("unknown host intrinsic {name:?}")))?;
            Ok(Item::Op(Op::HostCall(host.id())))
        }
        other => match PLAIN_OPS.iter().find(|row| row.1 == other) {
            Some(_) if operand.is_some() => Err(err(format!("{other} takes no operand"))),
            Some(row) => Ok(Item::Op(row.2)),
            None => Err(err(format!("unknown mnemonic {other:?}"))),
        },
    }
}

fn strip_comment(line: &str) -> &str {
    // ';' begins a comment unless inside a quoted string (for .data str:).
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            ';' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_int(s: &str) -> Option<i64> {
    let s = s.trim();
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok().map(|v| v as i64)
    } else if let Some(hex) = s.strip_prefix("-0x") {
        // The magnitude of `i64::MIN` is 2^63, one past `i64::MAX`.
        let v = u64::from_str_radix(hex, 16).ok().filter(|&v| v <= 1 << 63)?;
        Some((v as i64).wrapping_neg())
    } else {
        s.parse().ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assembles_minimal_module() {
        let m = assemble(".memory 2\n.func main args=0 locals=0\n ret\n").unwrap();
        assert_eq!(m.mem_pages, 2);
        assert_eq!(m.functions.len(), 1);
        assert_eq!(m.functions[0].name, "main");
    }

    #[test]
    fn push_width_selection() {
        let m = assemble(
            ".func main args=0 locals=0\npush 1\npush 1000\npush 0x1_0000_0000\nret\n"
                .replace('_', "")
                .as_str(),
        )
        .unwrap();
        let code = &m.functions[0].code;
        let (op1, next) = Op::decode(code, 0).unwrap();
        assert_eq!(op1, Op::PushI8(1));
        let (op2, next) = Op::decode(code, next).unwrap();
        assert_eq!(op2, Op::PushI32(1000));
        let (op3, _) = Op::decode(code, next).unwrap();
        assert_eq!(op3, Op::PushI64(0x1_0000_0000));
    }

    #[test]
    fn negative_and_hex_integers() {
        let m = assemble(".func f args=0 locals=0\npush -5\npush 0xFF\nret\n").unwrap();
        let code = &m.functions[0].code;
        let (op1, next) = Op::decode(code, 0).unwrap();
        assert_eq!(op1, Op::PushI8(-5));
        let (op2, _) = Op::decode(code, next).unwrap();
        assert_eq!(op2, Op::PushI32(0xFF));
        let m = assemble(".func f args=0 locals=0\npush -0x8000000000000000\nret\n").unwrap();
        assert_eq!(Op::decode(&m.functions[0].code, 0).unwrap().0, Op::PushI64(i64::MIN));
        let e = assemble(".func f args=0 locals=0\npush -0x8000000000000001\nret\n").unwrap_err();
        assert!(e.message.contains("bad integer"), "{}", e.message);
    }

    #[test]
    fn forward_and_backward_branches_resolve() {
        let src = r#"
            .func f args=0 locals=0
            top:
                push 0
                jmpif top
                jmp bottom
                unreachable
            bottom:
                ret
        "#;
        let m = assemble(src).unwrap();
        crate::verify::verify_module(&m).unwrap();
    }

    #[test]
    fn forward_call_resolves() {
        let src = r#"
            .func a args=0 locals=0
                call b
                ret
            .func b args=0 locals=0
                ret
        "#;
        let m = assemble(src).unwrap();
        let (op, _) = Op::decode(&m.functions[0].code, 0).unwrap();
        assert_eq!(op, Op::Call(1));
    }

    #[test]
    fn data_directives() {
        let src = r#"
            .memory 1
            .data 0 str:"ab"
            .data 10 hex:0102
        "#;
        let m = assemble(src).unwrap();
        assert_eq!(m.data.len(), 2);
        assert_eq!(m.data[0].bytes, b"ab");
        assert_eq!(m.data[1].bytes, vec![1, 2]);
        assert_eq!(m.data[1].offset, 10);
    }

    #[test]
    fn comments_stripped_even_after_code() {
        let src = ".func f args=0 locals=0 ; declare\n ret ; done\n";
        assert!(assemble(src).is_ok());
    }

    #[test]
    fn semicolon_inside_string_is_not_comment() {
        let src = ".memory 1\n.data 0 str:\"a;b\"\n";
        let m = assemble(src).unwrap();
        assert_eq!(m.data[0].bytes, b"a;b");
    }

    #[test]
    fn error_unknown_mnemonic() {
        let e = assemble(".func f args=0 locals=0\n fly\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("fly"));
    }

    #[test]
    fn error_unknown_label() {
        let e = assemble(".func f args=0 locals=0\n jmp nowhere\n").unwrap_err();
        assert!(e.message.contains("nowhere"));
    }

    #[test]
    fn error_unknown_function() {
        let e = assemble(".func f args=0 locals=0\n call ghost\n").unwrap_err();
        assert!(e.message.contains("ghost"));
    }

    #[test]
    fn error_duplicate_function() {
        let e =
            assemble(".func f args=0 locals=0\n ret\n.func f args=0 locals=0\n ret\n").unwrap_err();
        assert!(e.message.contains("duplicate"));
    }

    #[test]
    fn error_duplicate_label() {
        let e = assemble(".func f args=0 locals=0\nx:\nx:\n ret\n").unwrap_err();
        assert!(e.message.contains("duplicate label"));
    }

    #[test]
    fn error_instruction_outside_function() {
        let e = assemble("ret\n").unwrap_err();
        assert!(e.message.contains("before any .func"));
    }

    #[test]
    fn error_unknown_host() {
        let e = assemble(".func f args=0 locals=0\n host teleport\n").unwrap_err();
        assert!(e.message.contains("teleport"));
    }

    #[test]
    fn error_operand_arity() {
        assert!(assemble(".func f args=0 locals=0\n push\n").is_err());
        assert!(assemble(".func f args=0 locals=0\n ret 5\n").is_err());
        assert!(assemble(".func f args=0 locals=0\n push 1 2\n").is_err());
    }

    #[test]
    fn host_mnemonics_assemble() {
        for h in HostId::ALL {
            let src = format!(".func f args=0 locals=0\n host {}\n ret\n", h.mnemonic());
            let m = assemble(&src).unwrap();
            let (op, _) = Op::decode(&m.functions[0].code, 0).unwrap();
            assert_eq!(op, Op::HostCall(h.id()));
        }
    }
}

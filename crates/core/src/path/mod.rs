//! Path expressions: the AST of §2 Definition 3 and its textual syntax.

pub mod ast;
pub mod parse;

pub use ast::{AttrPredicate, CmpOp, DepthSet, PathExpr, Step, MAX_STEPS};
pub use parse::parse_path;

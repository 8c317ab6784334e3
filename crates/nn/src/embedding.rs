//! Token embedding layer.
//!
//! §III-B: *"Since RNNs accept input in the form of real-valued vectors,
//! a token embedding layer is added to embed the discrete token in a
//! vector."* The table can be initialised randomly or from the skip-gram
//! pre-training of Algorithm 1 ([`crate::skipgram`]); either way it stays
//! trainable (§IV-C2: *"we do not fix their values"*).

use crate::param::Param;
use rand::Rng;
use serde::{Deserialize, Serialize};
use t2vec_spatial::vocab::Token;
#[cfg(test)]
use t2vec_tape::{Tape, Var};
use t2vec_tensor::{init, Matrix};

/// A trainable `(vocab × dim)` embedding table.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Embedding {
    /// The table parameter.
    pub table: Param,
    dim: usize,
}

impl Embedding {
    /// A randomly initialised table (`U(±0.1)`, the usual scale for
    /// embeddings).
    pub fn new(name: &str, vocab: usize, dim: usize, rng: &mut impl Rng) -> Self {
        Self {
            table: Param::new(name, init::uniform(vocab, dim, 0.1, rng)),
            dim,
        }
    }

    /// A table initialised from pre-trained vectors (Algorithm 1).
    ///
    /// # Panics
    /// Panics if `table` is empty.
    pub fn from_pretrained(name: &str, table: Matrix) -> Self {
        assert!(
            table.rows() > 0 && table.cols() > 0,
            "empty embedding table"
        );
        let dim = table.cols();
        Self {
            table: Param::new(name, table),
            dim,
        }
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Vocabulary size.
    pub fn vocab(&self) -> usize {
        self.table.value.rows()
    }

    /// Tape-recorded lookup (the gradient oracle): one output row per
    /// token.
    #[cfg(test)]
    pub(crate) fn lookup<'t>(&self, table_var: Var<'t>, tokens: &[Token]) -> Var<'t> {
        let indices: Vec<usize> = tokens.iter().map(Token::idx).collect();
        table_var.gather_rows(&indices)
    }

    /// Binds the table on the tape (call once per step, then reuse).
    #[cfg(test)]
    pub(crate) fn bind<'t>(&self, tape: &'t Tape) -> Var<'t> {
        self.table.bind(tape)
    }

    /// Inference lookup without a tape.
    pub fn lookup_raw(&self, tokens: &[Token]) -> Matrix {
        let indices: Vec<usize> = tokens.iter().map(Token::idx).collect();
        self.table.value.gather_rows(&indices)
    }

    /// Borrowed view of one token's embedding row — the zero-allocation
    /// lookup the batched inference engine copies from each timestep.
    #[inline]
    pub fn vector(&self, tok: Token) -> &[f32] {
        self.table.value.row(tok.idx())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use t2vec_tensor::rng::det_rng;

    #[test]
    fn lookup_shapes_and_agreement() {
        let mut rng = det_rng(1);
        let emb = Embedding::new("emb", 10, 4, &mut rng);
        let tokens = vec![Token(3), Token(7), Token(3)];
        let tape = Tape::new();
        let table = emb.bind(&tape);
        let taped = emb.lookup(table, &tokens).value();
        let raw = emb.lookup_raw(&tokens);
        assert_eq!(taped.shape(), (3, 4));
        assert_eq!(taped, raw);
        // Duplicate tokens produce identical rows.
        assert_eq!(taped.row(0), taped.row(2));
    }

    #[test]
    fn gradient_flows_only_to_looked_up_rows() {
        let mut rng = det_rng(2);
        let emb = Embedding::new("emb", 6, 3, &mut rng);
        let tape = Tape::new();
        let table = emb.bind(&tape);
        let out = emb.lookup(table, &[Token(2), Token(2), Token(5)]);
        let loss = out.sum();
        let grads = tape.backward(loss);
        let g = grads.get(table).unwrap();
        // Row 2 hit twice, row 5 once, everything else zero.
        assert_eq!(g.row(2), &[2.0, 2.0, 2.0]);
        assert_eq!(g.row(5), &[1.0, 1.0, 1.0]);
        assert_eq!(g.row(0), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn pretrained_table_is_used_verbatim() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let emb = Embedding::from_pretrained("emb", m.clone());
        assert_eq!(emb.dim(), 2);
        assert_eq!(emb.vocab(), 2);
        assert_eq!(emb.lookup_raw(&[Token(1)]).row(0), m.row(1));
    }

    #[test]
    #[should_panic(expected = "empty embedding")]
    fn empty_pretrained_panics() {
        let _ = Embedding::from_pretrained("emb", Matrix::zeros(0, 0));
    }
}

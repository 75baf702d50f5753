//! SD019 — block-diagonal model structure detection.
//!
//! Two decision variables are *coupled* when some constraint row
//! references both; the transitive closure of coupling partitions the
//! variables (and the rows) into independent blocks. A model with K ≥ 2
//! blocks is block-diagonal: each block is a self-contained subproblem
//! that can be solved in isolation, and (for a separable objective,
//! which every linear objective is) the solutions concatenate into the
//! global optimum. This is exactly the decomposition a partitioned
//! parallel solver consumes (ROADMAP item 2), surfaced today as the
//! informational diagnostic SD019.
//!
//! The detection is a union-find over the coefficient matrix: for each
//! constraint atom, union all variables it references; blocks are the
//! resulting components among *constrained* variables (variables no
//! rule references are SD003's business, not a "block").

use crate::compile::{Atom, AuxColumn, CompiledModel};
use crate::symbolic::VarId;
use sqlengine::diag::Diagnostic;

/// One independent block of the constraint structure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    /// The decision variables of the block, ascending.
    pub vars: Vec<VarId>,
    /// Number of constraint rows that reference only this block.
    pub rows: usize,
}

/// Partition the constraint atoms into variable-disjoint blocks. Ids
/// from `first` on are auxiliary columns, `aux[k]` defining `first + k`:
/// one an atom reaches ties together the variables of its definition,
/// and is in no block's variables. Deterministic: blocks are ordered by
/// their smallest variable id.
pub fn blocks(atoms: &[Atom], first: VarId, aux: &[AuxColumn]) -> Vec<Block> {
    // Variable ids are dense: the largest one bounds the table (a
    // definition reads only smaller ones).
    let bound = atoms.iter().flat_map(|a| a.diff.vars()).max().map_or(0, |v| v + 1);
    let mut uf = UnionFind { parent: vec![ABSENT; bound as usize] };
    for atom in atoms {
        uf.join(atom.diff.vars());
    }
    for v in (first..bound).rev() {
        if uf.parent[v as usize] != ABSENT {
            uf.join(std::iter::once(v).chain(aux[(v - first) as usize].def.vars()));
        }
    }
    // Ascending ids: a block is opened by its smallest variable and
    // collects the rest in order.
    let mut block_of_root = vec![usize::MAX; bound as usize];
    let mut out: Vec<Block> = Vec::new();
    for v in 0..bound {
        if uf.parent[v as usize] == ABSENT || v >= first {
            continue;
        }
        let slot = &mut block_of_root[uf.find(v) as usize];
        if *slot == usize::MAX {
            *slot = out.len();
            out.push(Block { vars: vec![], rows: 0 });
        }
        out[*slot].vars.push(v);
    }
    for atom in atoms {
        if let Some(v) = atom.diff.vars().next() {
            out[block_of_root[uf.find(v) as usize]].rows += 1;
        }
    }
    out
}

/// SD019: informational finding when the model splits into independent
/// blocks. Requires a complete symbolic picture (otherwise an
/// unevaluated rule might couple the blocks) and at least one genuine
/// multi-variable constraint (a model of pure per-variable bounds would
/// otherwise report every variable as its own "block").
pub fn sd019_decomposable(model: &CompiledModel, diags: &mut Vec<Diagnostic>) {
    if !model.complete() {
        return;
    }
    let has_coupling = model.atoms.iter().any(|a| {
        let mut vars = a.diff.vars();
        let first = vars.next();
        vars.any(|v| Some(v) != first)
    });
    if !has_coupling {
        return;
    }
    let blocks = blocks(&model.atoms, model.prob.num_vars() as VarId, &model.aux);
    if blocks.len() < 2 {
        return;
    }
    const SHOWN: usize = 8;
    let mut lines: Vec<String> = blocks
        .iter()
        .take(SHOWN)
        .enumerate()
        .map(|(i, b)| {
            format!("block {}: {} variable(s), {} constraint row(s)", i + 1, b.vars.len(), b.rows)
        })
        .collect();
    if blocks.len() > SHOWN {
        lines.push(format!("... and {} more block(s)", blocks.len() - SHOWN));
    }
    lines.push(
        "the blocks share no decision variables; each can be solved as an \
         independent subproblem"
            .to_string(),
    );
    diags.push(
        Diagnostic::note(
            "SD019",
            format!("decomposable model: {} independent blocks", blocks.len()),
        )
        .with_detail(lines.join("\n")),
    );
}

/// The block structure of a compiled model (the entry point for tests
/// and the future partitioned solver). Returns an empty vector when a
/// rule did not compile — an incomplete picture admits no sound
/// decomposition, and callers must treat that as "none known".
pub fn problem_blocks(model: &CompiledModel) -> Vec<Block> {
    if model.rule_failure().is_some() {
        return Vec::new();
    }
    blocks(&model.atoms, model.prob.num_vars() as VarId, &model.aux)
}

/// Marks an id no atom names.
const ABSENT: VarId = VarId::MAX;

/// Minimal path-halving union-find over the dense `VarId`s of one model.
struct UnionFind {
    parent: Vec<VarId>,
}

impl UnionFind {
    fn ensure(&mut self, v: VarId) {
        if self.parent[v as usize] == ABSENT {
            self.parent[v as usize] = v;
        }
    }

    fn find(&mut self, v: VarId) -> VarId {
        self.ensure(v);
        let mut x = v;
        loop {
            let p = self.parent[x as usize];
            if p == x {
                break;
            }
            let gp = self.parent[p as usize];
            self.parent[x as usize] = gp;
            x = gp;
        }
        x
    }

    /// Put `vars` in one set.
    fn join(&mut self, mut vars: impl Iterator<Item = VarId>) {
        if let Some(first) = vars.next() {
            self.ensure(first);
            vars.for_each(|v| self.union(first, v));
        }
    }

    fn union(&mut self, a: VarId, b: VarId) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra as usize] = rb;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbolic::{LinExpr, Rel};

    fn atom(vars: &[(VarId, f64)]) -> Atom {
        Atom { diff: LinExpr { constant: 0.0, terms: vars.to_vec() }, rel: Rel::Le, rule: 0 }
    }

    #[test]
    fn disjoint_rows_make_two_blocks() {
        let atoms =
            vec![atom(&[(0, 1.0), (1, 1.0)]), atom(&[(2, 1.0), (3, 1.0)]), atom(&[(1, 2.0)])];
        let b = blocks(&atoms, VarId::MAX, &[]);
        assert_eq!(b.len(), 2);
        assert_eq!(b[0].vars, vec![0, 1]);
        assert_eq!(b[0].rows, 2);
        assert_eq!(b[1].vars, vec![2, 3]);
        assert_eq!(b[1].rows, 1);
    }

    #[test]
    fn coupling_row_merges_blocks() {
        let atoms = vec![
            atom(&[(0, 1.0), (1, 1.0)]),
            atom(&[(2, 1.0), (3, 1.0)]),
            atom(&[(1, 1.0), (2, 1.0)]), // couples the two
        ];
        let b = blocks(&atoms, VarId::MAX, &[]);
        assert_eq!(b.len(), 1);
        assert_eq!(b[0].vars, vec![0, 1, 2, 3]);
        assert_eq!(b[0].rows, 3);
    }

    #[test]
    fn constant_atoms_are_ignored() {
        let atoms = vec![atom(&[]), atom(&[(5, 1.0)])];
        let b = blocks(&atoms, VarId::MAX, &[]);
        assert_eq!(b.len(), 1);
        assert_eq!(b[0].rows, 1);
    }

    #[test]
    fn empty_atom_list_yields_no_blocks() {
        assert!(blocks(&[], VarId::MAX, &[]).is_empty());
        // All-constant atoms are equivalent to no atoms at all.
        assert!(blocks(&[atom(&[]), atom(&[])], VarId::MAX, &[]).is_empty());
    }

    #[test]
    fn single_variable_model_is_one_block() {
        // One variable referenced by several rows: one block, every row
        // attributed to it.
        let atoms = vec![atom(&[(7, 1.0)]), atom(&[(7, -2.0)]), atom(&[(7, 0.5)])];
        let b = blocks(&atoms, VarId::MAX, &[]);
        assert_eq!(b.len(), 1);
        assert_eq!(b[0].vars, vec![7]);
        assert_eq!(b[0].rows, 3);
    }

    #[test]
    fn fully_coupled_model_is_one_block() {
        // A chain of pairwise couplings merges everything transitively,
        // regardless of insertion order.
        let atoms = vec![
            atom(&[(3, 1.0), (0, 1.0)]),
            atom(&[(1, 1.0), (2, 1.0)]),
            atom(&[(0, 1.0), (1, 1.0)]),
            atom(&[(2, 1.0), (4, 1.0)]),
        ];
        let b = blocks(&atoms, VarId::MAX, &[]);
        assert_eq!(b.len(), 1);
        assert_eq!(b[0].vars, vec![0, 1, 2, 3, 4]);
        assert_eq!(b[0].rows, 4);
    }

    #[test]
    fn blocks_are_ordered_by_smallest_variable() {
        let atoms = vec![atom(&[(9, 1.0), (8, 1.0)]), atom(&[(1, 1.0), (5, 1.0)])];
        let b = blocks(&atoms, VarId::MAX, &[]);
        assert_eq!(b.len(), 2);
        assert_eq!(b[0].vars, vec![1, 5]);
        assert_eq!(b[1].vars, vec![8, 9]);
    }
}

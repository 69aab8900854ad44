//! The dynamic branch record model.

/// The static class of a branch instruction.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum BranchKind {
    /// A conditional direct branch — the only kind the predictor predicts.
    Conditional,
    /// An unconditional direct jump.
    Jump,
    /// A direct call.
    Call,
    /// A return.
    Return,
}

impl BranchKind {
    /// All kinds, in wire-format order.
    pub const ALL: [BranchKind; 4] = [
        BranchKind::Conditional,
        BranchKind::Jump,
        BranchKind::Call,
        BranchKind::Return,
    ];

    /// The 2-bit wire encoding.
    #[must_use]
    pub fn code(self) -> u8 {
        match self {
            BranchKind::Conditional => 0,
            BranchKind::Jump => 1,
            BranchKind::Call => 2,
            BranchKind::Return => 3,
        }
    }

    /// Decodes the 2-bit wire encoding.
    #[must_use]
    pub fn from_code(code: u8) -> Option<Self> {
        BranchKind::ALL.get(code as usize).copied()
    }

    /// Whether this kind consumes a direction prediction.
    #[must_use]
    pub fn is_conditional(self) -> bool {
        self == BranchKind::Conditional
    }
}

impl std::fmt::Display for BranchKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            BranchKind::Conditional => "cond",
            BranchKind::Jump => "jump",
            BranchKind::Call => "call",
            BranchKind::Return => "ret",
        })
    }
}

/// One dynamic branch in a trace.
///
/// `uops_since_prev` counts the micro-ops between the previous branch
/// (exclusive) and this one (inclusive), which is how the paper's
/// misp/Kuops metric is rebuilt from a trace.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct BranchRecord {
    /// The branch instruction's address.
    pub pc: u64,
    /// The branch's (taken-path) target address.
    pub target: u64,
    /// The static class of the branch.
    pub kind: BranchKind,
    /// The resolved direction (always `true` for unconditional kinds).
    pub taken: bool,
    /// Micro-ops executed since the previous record, including this branch.
    pub uops_since_prev: u32,
}

impl BranchRecord {
    /// A conditional branch record.
    #[must_use]
    pub fn conditional(pc: u64, target: u64, taken: bool, uops_since_prev: u32) -> Self {
        Self {
            pc,
            target,
            kind: BranchKind::Conditional,
            taken,
            uops_since_prev,
        }
    }

    /// The fall-through address (the next sequential uop line).
    ///
    /// The synthetic ISA uses fixed 4-byte slots, matching the indexing
    /// granularity of the predictors.
    #[must_use]
    pub fn fall_through(&self) -> u64 {
        self.pc + 4
    }

    /// The address control flow actually proceeded to.
    #[must_use]
    pub fn next_pc(&self) -> u64 {
        if self.taken {
            self.target
        } else {
            self.fall_through()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_codes_round_trip() {
        for k in BranchKind::ALL {
            assert_eq!(BranchKind::from_code(k.code()), Some(k));
        }
        assert_eq!(BranchKind::from_code(7), None);
    }

    #[test]
    fn kind_display_names() {
        let names: Vec<String> = BranchKind::ALL.iter().map(ToString::to_string).collect();
        assert_eq!(names, ["cond", "jump", "call", "ret"]);
    }

    #[test]
    fn only_conditionals_predict() {
        assert!(BranchKind::Conditional.is_conditional());
        assert!(!BranchKind::Jump.is_conditional());
        assert!(!BranchKind::Return.is_conditional());
    }

    #[test]
    fn next_pc_follows_direction() {
        let taken = BranchRecord::conditional(0x100, 0x200, true, 5);
        assert_eq!(taken.next_pc(), 0x200);
        let not_taken = BranchRecord::conditional(0x100, 0x200, false, 5);
        assert_eq!(not_taken.next_pc(), 0x104);
        assert_eq!(not_taken.fall_through(), 0x104);
    }
}

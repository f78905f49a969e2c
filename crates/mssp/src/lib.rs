//! # rsc-mssp — Master/Slave Speculative Parallelization substrate
//!
//! A deterministic timing simulation of the asymmetric chip multiprocessor
//! the paper uses to validate its speculation-control model (its Section
//! 4): one large leading core running the *distilled* (approximated,
//! check-free) program, eight small trailing cores verifying tasks, a
//! shared L2, and a dynamic optimizer whose speculation decisions come
//! from an [`rsc_control`] controller.
//!
//! The machine reproduces the paper's two performance results:
//!
//! * removing the controller's eviction arc (open loop) costs double-digit
//!   percent performance and can push MSSP below plain superscalar
//!   execution (Figure 7);
//! * re-optimization latencies of 0 / 100k / 1M cycles are almost
//!   indistinguishable (Figure 8).
//!
//! The simulator has two execution paths with bit-identical results.
//! [`run_baseline`] and [`run_mssp_only`] step one instruction at a time
//! and serve as the oracle. The chunked path steps whole task blocks
//! through the batched [`CoreModel`] arms: [`run_mssp_many`] generates
//! the program once and feeds each task to one trailing core, an
//! optional baseline core, and one master per [`MsspParams`] of a sweep.
//! [`run_mssp`] and [`run_mssp_only_chunked`] are its one-master cases,
//! and [`run_baseline_chunked`] steps the baseline alone. The paper's
//! experiments use the chunked path.
//!
//! ```
//! use rsc_mssp::{run_mssp, MsspParams};
//! use rsc_trace::{spec2000, InputId};
//!
//! let pop = spec2000::benchmark("vortex").unwrap().population(100_000);
//! let r = run_mssp(&pop, InputId::Eval, 100_000, 1, &MsspParams::new());
//! assert!(r.tasks > 0);
//! assert!(r.distillation_ratio() > 0.0);
//! ```

pub mod cache;
pub mod config;
pub mod distill;
pub mod machine;
pub mod predictor;
pub mod program;
pub mod timing;

pub use cache::Cache;
pub use config::{CoreConfig, MachineConfig};
pub use distill::Distiller;
pub use machine::{
    run_baseline, run_baseline_chunked, run_mssp, run_mssp_many, run_mssp_only,
    run_mssp_only_chunked, MsspParams, MsspResult,
};
pub use program::{BlockOp, Instr, InstrBlock, MemoryModel, OpKind, ProgramStream};
pub use timing::{CoreModel, StepMemo, TimingStats};

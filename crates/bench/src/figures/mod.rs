//! Figure computations. Each submodule exposes a `rows()` function
//! returning the series the paper's figure plots, and a `print(quick)`
//! entry used by the binaries.

pub mod fig02;
pub mod fig08;
pub mod fig09b;
pub mod fig09c;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig17;
pub mod fig18;
pub mod fig19;
pub mod sender;

/// Vector microbenchmark datatype: `block_bytes`-sized blocks on a 2x
/// stride (the Fig. 8 configuration: "stride (twice the blocksize)"),
/// sized to `msg_bytes` total. Built byte-granular so 4 B blocks are
/// really 4 B.
pub fn vector_workload(msg_bytes: u64, block_bytes: u64) -> (nca_ddt::types::Datatype, u32) {
    use nca_ddt::types::{elem, Datatype, DatatypeExt};
    let count = (msg_bytes / block_bytes).max(1) as u32;
    (
        Datatype::hvector(
            count,
            block_bytes as u32,
            2 * block_bytes as i64,
            &elem::byte(),
        ),
        1,
    )
}
pub mod ablations;

//! MPI-style derived datatype trees.
//!
//! A [`Datatype`] is an immutable, cheaply clonable (`Arc`) tree. Each node
//! caches derived quantities (size, extent, true extent, leaf-block count,
//! nesting depth, contiguity) so that the commit step ([`crate::dataloop`])
//! and the offload strategy selection are O(1) per node.
//!
//! Displacement conventions follow MPI:
//! * `vector` strides and `indexed*` displacements are in multiples of the
//!   base type **extent**;
//! * `hvector`/`hindexed*`/`struct` displacements are in **bytes**;
//! * internally everything is normalized to bytes.

use std::sync::{Arc, OnceLock};

use crate::error::{DdtError, Result};

/// Predefined elementary datatypes (the MPI basic types we support).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Elementary {
    /// 1-byte integer / `MPI_BYTE` / `MPI_CHAR`.
    Int8,
    /// 2-byte integer / `MPI_SHORT`.
    Int16,
    /// 4-byte integer / `MPI_INT`.
    Int32,
    /// 8-byte integer / `MPI_LONG_LONG`.
    Int64,
    /// 4-byte IEEE float / `MPI_FLOAT`.
    Float,
    /// 8-byte IEEE float / `MPI_DOUBLE`.
    Double,
    /// 16-byte complex double (`MPI_C_DOUBLE_COMPLEX`), used by FFT2D.
    ComplexDouble,
}

impl Elementary {
    /// Size of the elementary type in bytes.
    pub const fn size(self) -> u64 {
        match self {
            Elementary::Int8 => 1,
            Elementary::Int16 => 2,
            Elementary::Int32 | Elementary::Float => 4,
            Elementary::Int64 | Elementary::Double => 8,
            Elementary::ComplexDouble => 16,
        }
    }

    /// MPI-style name, for diagnostics.
    pub const fn name(self) -> &'static str {
        match self {
            Elementary::Int8 => "MPI_BYTE",
            Elementary::Int16 => "MPI_SHORT",
            Elementary::Int32 => "MPI_INT",
            Elementary::Int64 => "MPI_LONG_LONG",
            Elementary::Float => "MPI_FLOAT",
            Elementary::Double => "MPI_DOUBLE",
            Elementary::ComplexDouble => "MPI_C_DOUBLE_COMPLEX",
        }
    }
}

/// Array storage order for [`Datatype::subarray`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrayOrder {
    /// Row-major (last dimension contiguous), `MPI_ORDER_C`.
    C,
    /// Column-major (first dimension contiguous), `MPI_ORDER_FORTRAN`.
    Fortran,
}

/// One field of a struct datatype: `count` consecutive `ty` at byte
/// displacement `displ`.
#[derive(Debug, Clone)]
pub struct StructField {
    /// Number of consecutive elements of `ty`.
    pub count: u32,
    /// Byte displacement of the field relative to the struct origin.
    pub displ: i64,
    /// Field datatype.
    pub ty: Datatype,
}

/// The constructor variant of a datatype node. Displacements/strides are
/// in bytes (already converted from MPI element units).
#[derive(Debug, Clone)]
pub enum DatatypeKind {
    /// A predefined elementary type.
    Elementary(Elementary),
    /// `count` consecutive copies of the child (spaced by child extent).
    Contiguous {
        /// Repetition count.
        count: u32,
    },
    /// `count` blocks of `blocklen` children, block `i` at byte offset
    /// `i * stride_bytes`.
    Vector {
        /// Number of blocks.
        count: u32,
        /// Children per block.
        blocklen: u32,
        /// Byte stride between block starts (may be negative).
        stride_bytes: i64,
    },
    /// Fixed-size blocks at arbitrary byte displacements.
    IndexedBlock {
        /// Children per block.
        blocklen: u32,
        /// Byte displacement of each block.
        displs_bytes: Arc<[i64]>,
    },
    /// Variable-size blocks at arbitrary byte displacements.
    Indexed {
        /// `(blocklen, byte displacement)` per block, in typemap order.
        blocks: Arc<[(u32, i64)]>,
    },
    /// Heterogeneous struct; each field has its own child type.
    Struct {
        /// The fields, in typemap order.
        fields: Arc<[StructField]>,
    },
    /// Extent override (`MPI_Type_create_resized`); data identical to the
    /// child, lb/extent replaced.
    Resized {
        /// New lower bound (bytes).
        lb: i64,
        /// New extent (bytes).
        extent: i64,
    },
}

/// Internal node: kind + child + cached derived quantities.
#[derive(Debug)]
pub struct DatatypeNode {
    /// Constructor variant.
    pub kind: DatatypeKind,
    /// Child type (None for elementary; Struct children live in the fields).
    pub child: Option<Datatype>,
    /// Total number of data bytes (the packed size).
    pub size: u64,
    /// Lower bound in bytes (start of the extent; may be negative).
    pub lb: i64,
    /// Upper bound in bytes (`lb + extent`).
    pub ub: i64,
    /// Lowest byte actually written (true lower bound).
    pub true_lb: i64,
    /// One past the highest byte actually written (true upper bound).
    pub true_ub: i64,
    /// Number of *leaf* contiguous blocks in the typemap (not merged).
    pub leaf_blocks: u64,
    /// Maximum constructor nesting depth (elementary = 0).
    pub depth: u32,
    /// `Some(run_bytes)` when the typemap is one single contiguous,
    /// in-stream-order run starting at `true_lb`. Used for leaf collapsing.
    pub contig_run: Option<u64>,
    /// Structural fingerprint of the whole tree under this node, filled
    /// by the first [`crate::dataloop::compile_cached`] lookup, so a
    /// type committed once is hashed once however often it is looked up.
    pub(crate) fingerprint: OnceLock<u64>,
}

/// A committed-style, immutable, shareable datatype handle.
pub type Datatype = Arc<DatatypeNode>;

impl DatatypeNode {
    /// The extent in bytes (`ub - lb`), the spacing used when the type is
    /// repeated with a count.
    pub fn extent(&self) -> i64 {
        self.ub - self.lb
    }

    /// The true extent in bytes (span of bytes actually touched).
    pub fn true_extent(&self) -> i64 {
        self.true_ub - self.true_lb
    }

    /// Whether the typemap is a single in-order contiguous run.
    pub fn is_contiguous(&self) -> bool {
        self.contig_run.is_some()
    }

    /// Average contiguous-block length in bytes (size / leaf blocks).
    pub fn avg_block_len(&self) -> f64 {
        if self.leaf_blocks == 0 {
            0.0
        } else {
            self.size as f64 / self.leaf_blocks as f64
        }
    }

    /// A short human-readable signature of the type tree,
    /// e.g. `vector(vector(MPI_DOUBLE))`.
    pub fn signature(&self) -> String {
        let ctor = match &self.kind {
            DatatypeKind::Elementary(e) => return e.name().to_string(),
            DatatypeKind::Contiguous { .. } => "contiguous",
            DatatypeKind::Vector { .. } => "vector",
            DatatypeKind::IndexedBlock { .. } => "index_block",
            DatatypeKind::Indexed { .. } => "index",
            DatatypeKind::Struct { fields } => {
                let inner = fields.first().map(|f| f.ty.signature()).unwrap_or_default();
                return format!("struct({inner})");
            }
            DatatypeKind::Resized { .. } => {
                return self.child.as_ref().expect("resized child").signature()
            }
        };
        let inner = self
            .child
            .as_ref()
            .map(|c| c.signature())
            .unwrap_or_default();
        format!("{ctor}({inner})")
    }
}

#[allow(clippy::too_many_arguments)] // internal constructor aggregating cached node fields
fn mk(
    kind: DatatypeKind,
    child: Option<Datatype>,
    size: u64,
    lb: i64,
    ub: i64,
    true_lb: i64,
    true_ub: i64,
    leaf_blocks: u64,
    depth: u32,
    contig_run: Option<u64>,
) -> Datatype {
    Arc::new(DatatypeNode {
        kind,
        child,
        size,
        lb,
        ub,
        true_lb,
        true_ub,
        leaf_blocks,
        depth,
        contig_run,
        fingerprint: OnceLock::new(),
    })
}

/// Accumulates bounds over a set of placed child instances.
struct Bounds {
    lb: i64,
    ub: i64,
    tlb: i64,
    tub: i64,
    any: bool,
}

impl Bounds {
    fn new() -> Self {
        Bounds {
            lb: 0,
            ub: 0,
            tlb: 0,
            tub: 0,
            any: false,
        }
    }

    fn add(&mut self, at: i64, child: &DatatypeNode) {
        let (lb, ub) = (at + child.lb, at + child.ub);
        let (tlb, tub) = (at + child.true_lb, at + child.true_ub);
        if !self.any {
            (self.lb, self.ub, self.tlb, self.tub) = (lb, ub, tlb, tub);
            self.any = true;
        } else {
            self.lb = self.lb.min(lb);
            self.ub = self.ub.max(ub);
            self.tlb = self.tlb.min(tlb);
            self.tub = self.tub.max(tub);
        }
    }
}

/// Constructor functions. These mirror the MPI `MPI_Type_*` calls; see the
/// module docs for unit conventions.
pub struct DatatypeBuilder;

/// Extension constructors on the `Datatype` handle.
pub trait DatatypeExt {
    /// `MPI_Type_contiguous`.
    fn contiguous(count: u32, base: &Datatype) -> Datatype;
    /// `MPI_Type_vector` — stride in multiples of the base extent.
    fn vector(count: u32, blocklen: u32, stride: i64, base: &Datatype) -> Datatype;
    /// `MPI_Type_create_hvector` — stride in bytes.
    fn hvector(count: u32, blocklen: u32, stride_bytes: i64, base: &Datatype) -> Datatype;
    /// `MPI_Type_create_indexed_block` — displacements in base extents.
    fn indexed_block(blocklen: u32, displs: &[i64], base: &Datatype) -> Result<Datatype>;
    /// `MPI_Type_create_hindexed_block` — displacements in bytes.
    fn hindexed_block(blocklen: u32, displs_bytes: &[i64], base: &Datatype) -> Result<Datatype>;
    /// `MPI_Type_indexed` — displacements in base extents.
    fn indexed(blocklens: &[u32], displs: &[i64], base: &Datatype) -> Result<Datatype>;
    /// `MPI_Type_create_hindexed` — displacements in bytes.
    fn hindexed(blocklens: &[u32], displs_bytes: &[i64], base: &Datatype) -> Result<Datatype>;
    /// `MPI_Type_create_struct`.
    fn struct_(blocklens: &[u32], displs_bytes: &[i64], types: &[Datatype]) -> Result<Datatype>;
    /// `MPI_Type_create_subarray`.
    fn subarray(
        sizes: &[u64],
        subsizes: &[u64],
        starts: &[u64],
        order: ArrayOrder,
        base: &Datatype,
    ) -> Result<Datatype>;
    /// `MPI_Type_create_resized`.
    fn resized(lb: i64, extent: i64, base: &Datatype) -> Datatype;
    /// An elementary type handle.
    fn elementary(e: Elementary) -> Datatype;
}

impl DatatypeExt for Datatype {
    fn elementary(e: Elementary) -> Datatype {
        let s = e.size() as i64;
        mk(
            DatatypeKind::Elementary(e),
            None,
            e.size(),
            0,
            s,
            0,
            s,
            1,
            0,
            Some(e.size()),
        )
    }

    fn contiguous(count: u32, base: &Datatype) -> Datatype {
        let ext = base.extent();
        let size = base.size * count as u64;
        let mut b = Bounds::new();
        for i in 0..count as i64 {
            b.add(i * ext, base);
        }
        if count == 0 {
            // Zero-count types are legal: empty map, zero extent.
            return mk(
                DatatypeKind::Contiguous { count },
                Some(base.clone()),
                0,
                0,
                0,
                0,
                0,
                0,
                base.depth + 1,
                None,
            );
        }
        // Contiguous-of-contiguous stays one run iff the child is one run
        // that exactly fills its extent (so copies abut in order).
        let contig_run = match base.contig_run {
            Some(run) if run as i64 == ext || count == 1 => Some(run * count as u64),
            _ => None,
        };
        mk(
            DatatypeKind::Contiguous { count },
            Some(base.clone()),
            size,
            b.lb,
            b.ub,
            b.tlb,
            b.tub,
            base.leaf_blocks * count as u64,
            base.depth + 1,
            contig_run,
        )
    }

    fn vector(count: u32, blocklen: u32, stride: i64, base: &Datatype) -> Datatype {
        Datatype::hvector(count, blocklen, stride * base.extent(), base)
    }

    fn hvector(count: u32, blocklen: u32, stride_bytes: i64, base: &Datatype) -> Datatype {
        let ext = base.extent();
        let block = Datatype::contiguous(blocklen, base);
        let size = block.size * count as u64;
        let mut b = Bounds::new();
        for i in 0..count as i64 {
            b.add(i * stride_bytes, &block);
        }
        if count == 0 || blocklen == 0 {
            return mk(
                DatatypeKind::Vector {
                    count,
                    blocklen,
                    stride_bytes,
                },
                Some(base.clone()),
                0,
                0,
                0,
                0,
                0,
                0,
                base.depth + 1,
                None,
            );
        }
        // One run iff each block is one run and consecutive blocks abut:
        // stride == blocklen * extent and block itself is a full-extent run.
        let block_run_full = base.contig_run.map(|r| r as i64 == ext).unwrap_or(false)
            || blocklen == 1 && base.is_contiguous() && base.size as i64 == ext;
        let contig_run = if count == 1 {
            block.contig_run
        } else if block_run_full && stride_bytes == blocklen as i64 * ext && stride_bytes > 0 {
            Some(size)
        } else {
            None
        };
        mk(
            DatatypeKind::Vector {
                count,
                blocklen,
                stride_bytes,
            },
            Some(base.clone()),
            size,
            b.lb,
            b.ub,
            b.tlb,
            b.tub,
            base.leaf_blocks * blocklen as u64 * count as u64,
            base.depth + 1,
            contig_run,
        )
    }

    fn indexed_block(blocklen: u32, displs: &[i64], base: &Datatype) -> Result<Datatype> {
        let ext = base.extent();
        let displs_bytes: Vec<i64> = displs.iter().map(|d| d * ext).collect();
        Datatype::hindexed_block(blocklen, &displs_bytes, base)
    }

    fn hindexed_block(blocklen: u32, displs_bytes: &[i64], base: &Datatype) -> Result<Datatype> {
        if displs_bytes.is_empty() {
            return Err(DdtError::EmptyConstructor("hindexed_block"));
        }
        let block = Datatype::contiguous(blocklen, base);
        let size = block.size * displs_bytes.len() as u64;
        let mut b = Bounds::new();
        for &d in displs_bytes {
            b.add(d, &block);
        }
        let contig_run = single_run_indexed(displs_bytes.iter().map(|&d| (d, block.size)), &block);
        Ok(mk(
            DatatypeKind::IndexedBlock {
                blocklen,
                displs_bytes: displs_bytes.into(),
            },
            Some(base.clone()),
            size,
            b.lb,
            b.ub,
            b.tlb,
            b.tub,
            base.leaf_blocks * blocklen as u64 * displs_bytes.len() as u64,
            base.depth + 1,
            contig_run,
        ))
    }

    fn indexed(blocklens: &[u32], displs: &[i64], base: &Datatype) -> Result<Datatype> {
        let ext = base.extent();
        let displs_bytes: Vec<i64> = displs.iter().map(|d| d * ext).collect();
        Datatype::hindexed(blocklens, &displs_bytes, base)
    }

    fn hindexed(blocklens: &[u32], displs_bytes: &[i64], base: &Datatype) -> Result<Datatype> {
        if blocklens.len() != displs_bytes.len() {
            return Err(DdtError::LengthMismatch {
                expected: blocklens.len(),
                got: displs_bytes.len(),
            });
        }
        if blocklens.is_empty() {
            return Err(DdtError::EmptyConstructor("hindexed"));
        }
        let blocks: Vec<(u32, i64)> = blocklens
            .iter()
            .copied()
            .zip(displs_bytes.iter().copied())
            .collect();
        let mut b = Bounds::new();
        let mut size = 0u64;
        let mut leaf_blocks = 0u64;
        for &(len, d) in &blocks {
            let blk = Datatype::contiguous(len, base);
            if len > 0 {
                b.add(d, &blk);
            }
            size += blk.size;
            leaf_blocks += base.leaf_blocks * len as u64;
        }
        let contig_run = if base
            .contig_run
            .map(|r| r as i64 == base.extent())
            .unwrap_or(false)
        {
            single_run_indexed(
                blocks.iter().map(|&(len, d)| (d, len as u64 * base.size)),
                base,
            )
        } else {
            None
        };
        Ok(mk(
            DatatypeKind::Indexed {
                blocks: blocks.into(),
            },
            Some(base.clone()),
            size,
            b.lb,
            b.ub,
            b.tlb,
            b.tub,
            leaf_blocks,
            base.depth + 1,
            contig_run,
        ))
    }

    fn struct_(blocklens: &[u32], displs_bytes: &[i64], types: &[Datatype]) -> Result<Datatype> {
        if blocklens.len() != displs_bytes.len() || blocklens.len() != types.len() {
            return Err(DdtError::LengthMismatch {
                expected: blocklens.len(),
                got: displs_bytes.len().min(types.len()),
            });
        }
        if blocklens.is_empty() {
            return Err(DdtError::EmptyConstructor("struct"));
        }
        let fields: Vec<StructField> = blocklens
            .iter()
            .zip(displs_bytes)
            .zip(types)
            .map(|((&count, &displ), ty)| StructField {
                count,
                displ,
                ty: ty.clone(),
            })
            .collect();
        let mut b = Bounds::new();
        let mut size = 0u64;
        let mut leaf_blocks = 0u64;
        let mut depth = 0u32;
        for f in &fields {
            let blk = Datatype::contiguous(f.count, &f.ty);
            if f.count > 0 && blk.size > 0 {
                b.add(f.displ, &blk);
            }
            size += blk.size;
            leaf_blocks += f.ty.leaf_blocks * f.count as u64;
            depth = depth.max(f.ty.depth);
        }
        // Structs are conservatively never collapsed to a single run unless
        // there is exactly one field that is itself a run.
        let contig_run = if fields.len() == 1 {
            let blk = Datatype::contiguous(fields[0].count, &fields[0].ty);
            blk.contig_run
        } else {
            None
        };
        Ok(mk(
            DatatypeKind::Struct {
                fields: fields.into(),
            },
            None,
            size,
            b.lb,
            b.ub,
            b.tlb,
            b.tub,
            leaf_blocks,
            depth + 1,
            contig_run,
        ))
    }

    fn subarray(
        sizes: &[u64],
        subsizes: &[u64],
        starts: &[u64],
        order: ArrayOrder,
        base: &Datatype,
    ) -> Result<Datatype> {
        let n = sizes.len();
        if n == 0 {
            return Err(DdtError::EmptyConstructor("subarray"));
        }
        if subsizes.len() != n || starts.len() != n {
            return Err(DdtError::LengthMismatch {
                expected: n,
                got: subsizes.len().min(starts.len()),
            });
        }
        for d in 0..n {
            if starts[d] + subsizes[d] > sizes[d] || subsizes[d] == 0 {
                return Err(DdtError::SubarrayOutOfBounds { dim: d });
            }
        }
        // Normalize to C order by reversing dimension arrays for Fortran.
        let (sizes, subsizes, starts): (Vec<u64>, Vec<u64>, Vec<u64>) = match order {
            ArrayOrder::C => (sizes.to_vec(), subsizes.to_vec(), starts.to_vec()),
            ArrayOrder::Fortran => (
                sizes.iter().rev().copied().collect(),
                subsizes.iter().rev().copied().collect(),
                starts.iter().rev().copied().collect(),
            ),
        };
        let ext = base.extent();
        // Row strides in bytes: stride[d] = prod(sizes[d+1..]) * extent.
        let mut stride = vec![0i64; n];
        let mut acc = ext;
        for d in (0..n).rev() {
            stride[d] = acc;
            acc *= sizes[d] as i64;
        }
        let total_extent = acc; // full array extent in bytes
        let offset: i64 = (0..n).map(|d| starts[d] as i64 * stride[d]).sum();

        // Innermost contiguous run of subsizes[n-1] elements.
        let mut t = Datatype::contiguous(subsizes[n - 1] as u32, base);
        for d in (0..n - 1).rev() {
            t = Datatype::hvector(subsizes[d] as u32, 1, stride[d], &t);
        }
        // Place at the start offset and give the type the full-array extent,
        // so `count > 1` sends step whole arrays.
        let placed = Datatype::hindexed_block(1, &[offset], &t)?;
        Ok(Datatype::resized(0, total_extent, &placed))
    }

    fn resized(lb: i64, extent: i64, base: &Datatype) -> Datatype {
        mk(
            DatatypeKind::Resized { lb, extent },
            Some(base.clone()),
            base.size,
            lb,
            lb + extent,
            base.true_lb,
            base.true_ub,
            base.leaf_blocks,
            base.depth, // resize is transparent to processing depth
            base.contig_run,
        )
    }
}

/// Check whether a sequence of `(offset, nbytes)` placed child runs forms a
/// single in-order contiguous run; the child must itself be a full-extent
/// run for its copies to abut.
fn single_run_indexed(
    blocks: impl Iterator<Item = (i64, u64)>,
    child: &DatatypeNode,
) -> Option<u64> {
    child.contig_run?;
    let mut expected: Option<i64> = None;
    let mut total = 0u64;
    for (off, nbytes) in blocks {
        if nbytes == 0 {
            continue;
        }
        match expected {
            Some(e) if e != off => return None,
            _ => {}
        }
        expected = Some(off + nbytes as i64);
        total += nbytes;
    }
    // A lone block is a run only if the child is (checked above).
    Some(total)
}

/// Shorthand constructors for the common elementary types.
pub mod elem {
    use super::{Datatype, DatatypeExt, Elementary};

    /// `MPI_BYTE`.
    pub fn byte() -> Datatype {
        Datatype::elementary(Elementary::Int8)
    }
    /// `MPI_INT`.
    pub fn int() -> Datatype {
        Datatype::elementary(Elementary::Int32)
    }
    /// `MPI_FLOAT`.
    pub fn float() -> Datatype {
        Datatype::elementary(Elementary::Float)
    }
    /// `MPI_DOUBLE`.
    pub fn double() -> Datatype {
        Datatype::elementary(Elementary::Double)
    }
    /// `MPI_C_DOUBLE_COMPLEX`.
    pub fn complex_double() -> Datatype {
        Datatype::elementary(Elementary::ComplexDouble)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elementary_properties() {
        let d = elem::double();
        assert_eq!(d.size, 8);
        assert_eq!(d.extent(), 8);
        assert_eq!(d.leaf_blocks, 1);
        assert!(d.is_contiguous());
        assert_eq!(d.signature(), "MPI_DOUBLE");
    }

    #[test]
    fn contiguous_is_contiguous() {
        let t = Datatype::contiguous(10, &elem::int());
        assert_eq!(t.size, 40);
        assert_eq!(t.extent(), 40);
        assert!(t.is_contiguous());
        assert_eq!(t.contig_run, Some(40));
    }

    #[test]
    fn vector_gaps_not_contiguous() {
        // column of a 4x4 int matrix
        let t = Datatype::vector(4, 1, 4, &elem::int());
        assert_eq!(t.size, 16);
        assert_eq!(t.extent(), (3 * 4 + 1) * 4);
        assert!(!t.is_contiguous());
        assert_eq!(t.leaf_blocks, 4);
    }

    #[test]
    fn vector_without_gaps_is_contiguous() {
        let t = Datatype::vector(4, 2, 2, &elem::int());
        assert!(t.is_contiguous());
        assert_eq!(t.contig_run, Some(32));
    }

    #[test]
    fn negative_stride_vector_not_a_run() {
        let t = Datatype::vector(4, 1, -1, &elem::int());
        assert_eq!(t.size, 16);
        assert!(!t.is_contiguous());
        assert!(t.lb < 0);
        assert_eq!(t.extent(), 16); // -12..4
    }

    #[test]
    fn indexed_block_bounds() {
        let t = Datatype::indexed_block(2, &[0, 5, 10], &elem::int()).unwrap();
        assert_eq!(t.size, 24);
        assert_eq!(t.true_lb, 0);
        assert_eq!(t.true_ub, 48);
        assert_eq!(t.leaf_blocks, 3 * 2);
        assert!(!t.is_contiguous());
    }

    #[test]
    fn indexed_block_adjacent_is_run() {
        let t = Datatype::indexed_block(2, &[0, 2, 4], &elem::int()).unwrap();
        assert!(t.is_contiguous());
        assert_eq!(t.contig_run, Some(24));
    }

    #[test]
    fn indexed_variable_blocks() {
        let t = Datatype::indexed(&[1, 3], &[0, 2], &elem::double()).unwrap();
        assert_eq!(t.size, 32);
        assert_eq!(t.true_ub, 40);
        assert_eq!(t.leaf_blocks, 4);
    }

    #[test]
    fn struct_mixed() {
        let t = Datatype::struct_(&[1, 2], &[0, 8], &[elem::double(), elem::int()]).unwrap();
        assert_eq!(t.size, 16);
        assert_eq!(t.true_ub, 16);
        assert!(t.is_contiguous() || t.leaf_blocks == 3);
    }

    #[test]
    fn struct_length_mismatch() {
        let e = Datatype::struct_(&[1], &[0, 8], &[elem::int()]);
        assert!(e.is_err());
    }

    #[test]
    fn subarray_c_order() {
        // 4x6 int array, take rows 1..3, cols 2..5 (2x3 block)
        let t = Datatype::subarray(&[4, 6], &[2, 3], &[1, 2], ArrayOrder::C, &elem::int()).unwrap();
        assert_eq!(t.size, 2 * 3 * 4);
        assert_eq!(t.extent(), 4 * 6 * 4); // full array extent
        assert_eq!(t.leaf_blocks, 2 * 3);
        // first byte: row 1, col 2 => (1*6+2)*4 = 32
        assert_eq!(t.true_lb, 32);
    }

    #[test]
    fn subarray_fortran_order() {
        let c = Datatype::subarray(&[4, 6], &[2, 3], &[1, 2], ArrayOrder::C, &elem::int()).unwrap();
        let f = Datatype::subarray(&[6, 4], &[3, 2], &[2, 1], ArrayOrder::Fortran, &elem::int())
            .unwrap();
        assert_eq!(c.size, f.size);
        assert_eq!(c.true_lb, f.true_lb);
        assert_eq!(c.true_ub, f.true_ub);
    }

    #[test]
    fn subarray_full_is_contiguous() {
        let t = Datatype::subarray(&[4, 6], &[4, 6], &[0, 0], ArrayOrder::C, &elem::int()).unwrap();
        assert!(t.is_contiguous());
        assert_eq!(t.size, 96);
    }

    #[test]
    fn subarray_out_of_bounds() {
        let e = Datatype::subarray(&[4], &[3], &[2], ArrayOrder::C, &elem::int());
        assert!(matches!(e, Err(DdtError::SubarrayOutOfBounds { dim: 0 })));
    }

    #[test]
    fn resized_changes_extent_only() {
        let v = Datatype::vector(2, 1, 4, &elem::int());
        let r = Datatype::resized(0, 64, &v);
        assert_eq!(r.size, v.size);
        assert_eq!(r.extent(), 64);
        assert_eq!(r.true_ub, v.true_ub);
    }

    #[test]
    fn nested_vector_of_vector() {
        // MILC-style vector(vector(double))
        let inner = Datatype::vector(4, 2, 8, &elem::double());
        let outer = Datatype::vector(3, 1, 100, &inner);
        assert_eq!(outer.size, 3 * 4 * 2 * 8);
        // leaf_blocks counts elementary-granularity blocks (unmerged):
        // 3 outer x 4 inner blocks x 2 doubles each.
        assert_eq!(outer.leaf_blocks, 3 * 4 * 2);
        assert_eq!(outer.depth, inner.depth + 1);
        assert_eq!(outer.signature(), "vector(vector(MPI_DOUBLE))");
    }

    #[test]
    fn zero_count_types() {
        let t = Datatype::contiguous(0, &elem::int());
        assert_eq!(t.size, 0);
        assert_eq!(t.extent(), 0);
        let v = Datatype::hvector(0, 3, 16, &elem::int());
        assert_eq!(v.size, 0);
    }

    #[test]
    fn avg_block_len() {
        // Elementary granularity: 32 int-sized blocks of 4 bytes. The
        // merged contiguous-region count lives on the compiled dataloop.
        let t = Datatype::vector(8, 4, 8, &elem::int());
        assert!((t.avg_block_len() - 4.0).abs() < 1e-9);
    }
}

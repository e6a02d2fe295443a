//! The thirteen Fig. 16 application datatypes.

use nca_ddt::dataloop::compile_cached;
use nca_ddt::types::{elem, ArrayOrder, Datatype, DatatypeExt};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One application/input combination of Fig. 16.
#[derive(Clone)]
pub struct AppWorkload {
    /// Application name as the figure labels it.
    pub app: &'static str,
    /// Datatype constructor class annotation (e.g. `vector(vector)`).
    pub ddt_class: &'static str,
    /// Input label (a, b, c, d).
    pub input: char,
    /// The receive datatype.
    pub dt: Datatype,
    /// Repetition count of the receive.
    pub count: u32,
}

impl AppWorkload {
    /// Full label, e.g. `MILC/b`.
    pub fn label(&self) -> String {
        format!("{}/{}", self.app, self.input)
    }

    /// Message size in bytes.
    pub fn msg_bytes(&self) -> u64 {
        self.dt.size * self.count as u64
    }

    /// Average contiguous regions per packet of `payload` bytes (γ).
    pub fn gamma(&self, payload: u64) -> f64 {
        let dl = compile_cached(&self.dt, self.count);
        let npkt = dl.size.div_ceil(payload).max(1);
        dl.blocks as f64 / npkt as f64
    }
}

fn wl(
    app: &'static str,
    ddt_class: &'static str,
    input: char,
    dt: Datatype,
    count: u32,
) -> AppWorkload {
    AppWorkload {
        app,
        ddt_class,
        input,
        dt,
        count,
    }
}

/// COMB: n-dimensional array face exchanges, expressed as subarrays.
/// First two inputs are single-packet messages (the paper notes offload
/// brings no speedup there); the larger ones stress tiny strided blocks.
pub fn comb() -> Vec<AppWorkload> {
    let d = elem::double();
    let mk = |n: u64, face: u64, dim: usize, input| {
        // Exchange one face of an n³ grid: subsizes pick `face` planes of
        // the dimension `dim`.
        let sizes = [n, n, n];
        let mut subsizes = [n, n, n];
        subsizes[dim] = face;
        let starts = [0u64, 0, 0];
        let dt = Datatype::subarray(&sizes, &subsizes, &starts, ArrayOrder::C, &d).unwrap();
        wl("COMB", "subarray", input, dt, 1)
    };
    vec![
        mk(8, 1, 0, 'a'),   // 512 B — fits one packet
        mk(8, 2, 1, 'b'),   // 1 KiB — fits one packet
        mk(64, 2, 2, 'c'),  // x-face: 2-element blocks, strided
        mk(128, 2, 2, 'd'), // larger x-face
    ]
}

/// FFT2D: matrix-transpose receive — each peer's contribution is a
/// strided block-column, `contiguous(vector)`.
pub fn fft2d() -> Vec<AppWorkload> {
    let c = elem::complex_double();
    let mk = |n: u64, p: u64, input| {
        let rows = (n / p) as u32; // local rows
        let cols = (n / p) as u32; // columns from one peer
        let v = Datatype::vector(rows, cols, n as i64, &c);
        let dt = Datatype::contiguous(1, &v);
        wl("FFT2D", "contiguous(vector)", input, dt, 1)
    };
    vec![
        mk(2048, 16, 'a'),
        mk(4096, 16, 'b'),
        mk(8192, 16, 'c'),
        mk(8192, 8, 'd'),
    ]
}

/// LAMMPS: exchange of particle properties at arbitrary indices —
/// `index` (variable-length blocks).
pub fn lammps() -> Vec<AppWorkload> {
    let d = elem::double();
    let mk = |particles: u64, seed: u64, input| {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut displs = Vec::with_capacity(particles as usize);
        let mut lens = Vec::with_capacity(particles as usize);
        let mut at = 0i64;
        for _ in 0..particles {
            let len = rng.random_range(1..=3u32); // 1..3 doubles/particle
            displs.push(at);
            lens.push(len);
            at += len as i64 + rng.random_range(1..=4i64);
        }
        let dt = Datatype::indexed(&lens, &displs, &d).unwrap();
        wl("LAMMPS", "index", input, dt, 1)
    };
    vec![
        mk(2_000, 11, 'a'),
        mk(8_000, 12, 'b'),
        mk(32_000, 13, 'c'),
        mk(64_000, 14, 'd'),
    ]
}

/// LAMMPS "full" variant: more properties per particle, fixed-size
/// blocks — `index_block`.
pub fn lammps_full() -> Vec<AppWorkload> {
    let d = elem::double();
    let mk = |particles: u64, props: u32, seed: u64, input| {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut displs = Vec::with_capacity(particles as usize);
        let mut at = 0i64;
        for _ in 0..particles {
            displs.push(at);
            at += props as i64 + rng.random_range(1..=6i64);
        }
        let dt = Datatype::indexed_block(props, &displs, &d).unwrap();
        wl("LAMMPS-F", "index_block", input, dt, 1)
    };
    vec![
        mk(2_000, 8, 21, 'a'),
        mk(8_000, 8, 22, 'b'),
        mk(16_000, 8, 23, 'c'),
        mk(48_000, 8, 24, 'd'),
    ]
}

/// MILC: 4D lattice QCD halo exchange — `vector(vector)` of doubles
/// (su3 matrices on strided sites).
pub fn milc() -> Vec<AppWorkload> {
    let d = elem::double();
    let mk = |l: u64, input| {
        // site payload: 3x3 complex su3 matrix = 18 doubles
        let inner = Datatype::vector((l * l) as u32, 18, (18 * l) as i64, &d);
        // outer stride in BYTES (one t-slab of the l^4 lattice)
        let outer = Datatype::hvector(l as u32, 1, (18 * l * l * l * 8) as i64, &inner);
        wl("MILC", "vector(vector)", input, outer, 1)
    };
    vec![mk(8, 'a'), mk(12, 'b'), mk(16, 'c'), mk(20, 'd')]
}

/// NAS LU: rhs-solver halo — the first dimension holds 5 doubles, faces
/// of the 4D array are exchanged: small 40 B blocks on a fixed stride.
pub fn nas_lu() -> Vec<AppWorkload> {
    let d = elem::double();
    let mk = |nx: u64, nz: u64, input| {
        let dt = Datatype::vector((nx * nz) as u32, 5, (5 * (nx + 2)) as i64, &d);
        wl("NAS-LU", "vector", input, dt, 1)
    };
    vec![
        mk(33, 33, 'a'),
        mk(64, 64, 'b'),
        mk(102, 102, 'c'),
        mk(162, 162, 'd'),
    ]
}

/// NAS MG: 3D multigrid face exchange — row-sized blocks on the plane
/// stride.
pub fn nas_mg() -> Vec<AppWorkload> {
    let d = elem::double();
    let mk = |n: u64, input| {
        let dt = Datatype::vector(n as u32, n as u32, (n * n) as i64 * 2, &d);
        wl("NAS-MG", "vector", input, dt, 1)
    };
    vec![mk(32, 'a'), mk(64, 'b'), mk(128, 'c'), mk(256, 'd')]
}

/// SPECFEM3D outer-core exchange: single-float blocks at irregular mesh
/// indices (γ ≈ 512 in the paper — the pathological tiny-block case).
pub fn spec_oc() -> Vec<AppWorkload> {
    let f = elem::float();
    let mk = |points: u64, seed: u64, input| {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut displs = Vec::with_capacity(points as usize);
        let mut at = 0i64;
        for _ in 0..points {
            displs.push(at);
            at += 1 + rng.random_range(1..=3i64);
        }
        let dt = Datatype::indexed_block(1, &displs, &f).unwrap();
        wl("SPEC-OC", "index_block", input, dt, 1)
    };
    vec![
        mk(8_000, 31, 'a'),
        mk(32_000, 32, 'b'),
        mk(131_072, 33, 'c'),
        mk(262_144, 34, 'd'),
    ]
}

/// SPECFEM3D crust-mantle exchange: 3-float blocks (vector fields) at
/// irregular indices.
pub fn spec_cm() -> Vec<AppWorkload> {
    let f = elem::float();
    let mk = |points: u64, seed: u64, input| {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut displs = Vec::with_capacity(points as usize);
        let mut at = 0i64;
        for _ in 0..points {
            displs.push(at);
            at += 3 + rng.random_range(1..=4i64);
        }
        let dt = Datatype::indexed_block(3, &displs, &f).unwrap();
        wl("SPEC-CM", "index_block", input, dt, 1)
    };
    vec![
        mk(4_000, 41, 'a'),
        mk(16_000, 42, 'b'),
        mk(65_536, 43, 'c'),
        mk(131_072, 44, 'd'),
    ]
}

/// SW4LITE x-direction ghost planes: small strided blocks.
pub fn sw4_x() -> Vec<AppWorkload> {
    let d = elem::double();
    let mk = |n: u64, input| {
        // 2-wide ghost plane in x: blocks of 2 doubles, stride = row
        let dt = Datatype::vector((n * n) as u32, 2, n as i64, &d);
        wl("SW4LITE-X", "vector", input, dt, 1)
    };
    vec![mk(48, 'a'), mk(96, 'b'), mk(160, 'c')]
}

/// SW4LITE y-direction ghost planes: whole rows (large blocks).
pub fn sw4_y() -> Vec<AppWorkload> {
    let d = elem::double();
    let mk = |n: u64, input| {
        // 2 ghost rows of n doubles per plane, stride = plane
        let dt = Datatype::vector(n as u32, (2 * n) as u32, (n * n) as i64, &d);
        wl("SW4LITE-Y", "vector", input, dt, 1)
    };
    vec![mk(48, 'a'), mk(96, 'b'), mk(160, 'c')]
}

/// WRF halo exchanges: structs of subarrays of the 3D Cartesian grid.
/// x-direction: non-contiguous pencils (small blocks); y-direction:
/// contiguous row runs (large blocks).
fn wrf(dir: usize) -> Vec<AppWorkload> {
    let f = elem::float();
    let (app, inputs): (&'static str, [(u64, char); 3]) = if dir == 2 {
        ("WRF-X", [(32, 'a'), (64, 'b'), (96, 'c')])
    } else {
        ("WRF-Y", [(32, 'a'), (64, 'b'), (96, 'c')])
    };
    inputs
        .iter()
        .map(|&(n, input)| {
            // Grid (z, y, x) = (n/2, n, n); halo width 3 in `dir`.
            let sizes = [n / 2, n, n];
            let mut subsizes = sizes;
            subsizes[dir] = 3;
            let starts = [0u64, 0, 0];
            let sa = |field: u64| {
                let s = Datatype::subarray(&sizes, &subsizes, &starts, ArrayOrder::C, &f).unwrap();
                let bytes = sizes.iter().product::<u64>() * 4;
                (s, (field * bytes) as i64)
            };
            // Two field arrays exchanged together (u, v).
            let (s0, d0) = sa(0);
            let (s1, d1) = sa(1);
            let dt = Datatype::struct_(&[1, 1], &[d0, d1], &[s0, s1]).unwrap();
            wl(app, "struct(subarray)", input, dt, 1)
        })
        .collect()
}

/// WRF x-direction exchange.
pub fn wrf_x() -> Vec<AppWorkload> {
    wrf(2)
}

/// WRF y-direction exchange.
pub fn wrf_y() -> Vec<AppWorkload> {
    wrf(1)
}

/// One Fig. 16 application: its lower-case family name (the traffic
/// mixes use it), the `app` name its workloads carry, and the
/// constructor of its inputs.
pub type Family = (&'static str, &'static str, fn() -> Vec<AppWorkload>);

/// The thirteen families, in figure order.
pub const FAMILIES: [Family; 13] = [
    ("comb", "COMB", comb),
    ("fft2d", "FFT2D", fft2d),
    ("lammps", "LAMMPS", lammps),
    ("lammps_full", "LAMMPS-F", lammps_full),
    ("milc", "MILC", milc),
    ("nas_lu", "NAS-LU", nas_lu),
    ("nas_mg", "NAS-MG", nas_mg),
    ("spec_cm", "SPEC-CM", spec_cm),
    ("spec_oc", "SPEC-OC", spec_oc),
    ("sw4_x", "SW4LITE-X", sw4_x),
    ("sw4_y", "SW4LITE-Y", sw4_y),
    ("wrf_x", "WRF-X", wrf_x),
    ("wrf_y", "WRF-Y", wrf_y),
];

/// All Fig. 16 workloads in figure order.
pub fn all_workloads() -> Vec<AppWorkload> {
    FAMILIES
        .iter()
        .flat_map(|(_, _, family)| family())
        .collect()
}

/// The workload with exact label `label` (e.g. `MILC/b`); builds only
/// its own family's datatypes.
pub fn by_label(label: &str) -> Option<AppWorkload> {
    let (app, _) = label.split_once('/')?;
    let (_, _, family) = FAMILIES.iter().find(|(_, name, _)| *name == app)?;
    family().into_iter().find(|w| w.label() == label)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_workloads_nonempty_and_valid() {
        let ws = all_workloads();
        assert!(ws.len() >= 13 * 3);
        for w in &ws {
            assert!(w.msg_bytes() > 0, "{} empty", w.label());
            // γ < 1 is legitimate when blocks exceed the packet size.
            assert!(w.gamma(2048) > 0.0, "{} γ = {}", w.label(), w.gamma(2048));
            // buffer spans must stay laptop-sized
            let (_, span) = nca_ddt::pack::buffer_span(&w.dt, w.count);
            assert!(span < 1 << 28, "{} span = {}", w.label(), span);
        }
    }

    #[test]
    fn constructor_classes_match_annotations() {
        for w in milc() {
            assert_eq!(w.dt.signature(), "vector(vector(MPI_DOUBLE))");
        }
        for w in nas_lu() {
            assert_eq!(w.dt.signature(), "vector(MPI_DOUBLE)");
        }
        for w in lammps() {
            assert_eq!(w.dt.signature(), "index(MPI_DOUBLE)");
        }
        for w in wrf_x() {
            assert!(
                w.dt.signature().starts_with("struct("),
                "{}",
                w.dt.signature()
            );
        }
    }

    #[test]
    fn comb_first_inputs_fit_one_packet() {
        let c = comb();
        assert!(c[0].msg_bytes() <= 2048, "COMB/a = {}", c[0].msg_bytes());
        assert!(c[1].msg_bytes() <= 2048, "COMB/b = {}", c[1].msg_bytes());
    }

    #[test]
    fn spec_oc_has_pathological_gamma() {
        let oc = spec_oc();
        let g = oc.last().unwrap().gamma(2048);
        assert!(g > 300.0, "SPEC-OC γ must be huge, got {g}");
    }

    #[test]
    fn sw4_directions_differ_in_block_size() {
        let x = &sw4_x()[1];
        let y = &sw4_y()[1];
        assert!(x.gamma(2048) > 10.0 * y.gamma(2048).max(1.0) || y.gamma(2048) <= 2.0);
    }

    #[test]
    fn workloads_are_deterministic() {
        let a = lammps()[0].dt.clone();
        let b = lammps()[0].dt.clone();
        assert_eq!(
            nca_ddt::typemap::blocks(&a, 1),
            nca_ddt::typemap::blocks(&b, 1)
        );
    }

    #[test]
    fn messages_pack_and_unpack() {
        for w in all_workloads() {
            if w.msg_bytes() > 4 << 20 {
                continue; // keep the test fast
            }
            let (origin, span) = nca_ddt::pack::buffer_span(&w.dt, w.count);
            let src: Vec<u8> = (0..span as usize).map(|i| (i % 251) as u8).collect();
            let packed = nca_ddt::pack::pack(&w.dt, w.count, &src, origin).unwrap();
            assert_eq!(packed.len() as u64, w.msg_bytes(), "{}", w.label());
        }
    }
}

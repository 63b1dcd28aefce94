//! Input damage for the codec fuzz tests: the shapes a torn, corrupted or
//! hostile journal line or wire frame takes.

/// Damages `base`: `kind` 0 is `noise` alone, 1 truncates at `at`, 2
/// overwrites the byte at `at` with `byte`, 3 overwrites it with a JSON
/// structural byte, 4 inserts `noise` at `at`. `at` wraps to the input.
pub fn damage(base: &[u8], kind: u8, at: u64, byte: u8, noise: &[u8]) -> Vec<u8> {
    const STRUCTURAL: &[u8] = b"{}[]\",:\\-0 \n";
    let mut out = base.to_vec();
    let at = (at % (base.len() as u64 + 1)) as usize;
    match kind {
        0 => return noise.to_vec(),
        1 => out.truncate(at),
        2 | 3 if at < out.len() => {
            out[at] = if kind == 2 {
                byte
            } else {
                STRUCTURAL[usize::from(byte) % STRUCTURAL.len()]
            };
        }
        4 => {
            out.splice(at..at, noise.iter().copied());
        }
        _ => {}
    }
    out
}

//! Parallel sweep execution.
//!
//! Every figure is a sweep of independent, deterministic simulations, so
//! points run on a thread pool. Determinism is preserved: each point is
//! seeded independently and results are returned in input order.

use std::sync::Mutex;

/// Maps `f` over `inputs` in parallel, preserving order.
pub fn parallel_map<I, O, F>(inputs: Vec<I>, f: F) -> Vec<O>
where
    I: Send,
    O: Send,
    F: Fn(I) -> O + Sync,
{
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(inputs.len().max(1));
    let n = inputs.len();
    let mut slots: Vec<Option<O>> = (0..n).map(|_| None).collect();
    let jobs: Vec<(usize, I)> = inputs.into_iter().enumerate().collect();
    let queue = Mutex::new(jobs);
    let results = Mutex::new(Vec::<(usize, O)>::new());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let job = queue.lock().expect("queue poisoned").pop();
                match job {
                    Some((i, input)) => {
                        let out = f(input);
                        results.lock().expect("results poisoned").push((i, out));
                    }
                    None => break,
                }
            });
        }
    });
    for (i, o) in results.into_inner().expect("results poisoned") {
        slots[i] = Some(o);
    }
    slots
        .into_iter()
        .map(|s| s.expect("all jobs ran"))
        .collect()
}

/// Runs `f` on every `(row, col)` cell in parallel and returns the
/// results as one vector per row, each in column order.
pub fn grid<R, C, O, F>(rows: &[R], cols: &[C], f: F) -> Vec<Vec<O>>
where
    R: Sync,
    C: Sync,
    O: Send,
    F: Fn(&R, &C) -> O + Sync,
{
    let cells = rows
        .iter()
        .flat_map(|r| cols.iter().map(move |c| (r, c)))
        .collect();
    let mut out = parallel_map(cells, |(r, c)| f(r, c)).into_iter();
    rows.iter()
        .map(|_| out.by_ref().take(cols.len()).collect())
        .collect()
}

/// Whether the full (paper-length) parameter sweeps were requested via
/// the `SCALERPC_FULL` environment variable.
pub fn full_sweeps() -> bool {
    std::env::var("SCALERPC_FULL")
        .map(|v| v != "0")
        .unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order_and_values() {
        let out = parallel_map((0..100).collect(), |x: i32| x * x);
        assert_eq!(out.len(), 100);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, (i * i) as i32);
        }
    }

    #[test]
    fn grid_is_row_major_with_one_vector_per_row() {
        let out = grid(&[10, 20, 30], &[1, 2], |r, c| r + c);
        assert_eq!(out, vec![vec![11, 12], vec![21, 22], vec![31, 32]]);
        let wide = grid(&['a'], &[1, 2, 3, 4], |r, c| format!("{r}{c}"));
        assert_eq!(wide, vec![vec!["a1", "a2", "a3", "a4"]]);
    }

    #[test]
    fn grid_without_rows_or_columns() {
        let no_rows: Vec<Vec<i32>> = grid(&[] as &[i32], &[1, 2], |r, c| r + c);
        assert!(no_rows.is_empty());
        let no_cols: Vec<Vec<i32>> = grid(&[1, 2, 3], &[] as &[i32], |r, c| r + c);
        assert_eq!(no_cols, vec![Vec::<i32>::new(); 3]);
    }

    #[test]
    fn empty_input() {
        let out: Vec<i32> = parallel_map(Vec::<i32>::new(), |x| x);
        assert!(out.is_empty());
    }
}

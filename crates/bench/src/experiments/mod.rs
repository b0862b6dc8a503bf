//! One module per paper table/figure. Every module exposes
//! `run(scale: f64) -> String`; the binaries print that string, and
//! `run_all` concatenates everything for `EXPERIMENTS.md`.

pub mod fig1;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod table2;
pub mod table3;

/// Runs every experiment at the given scale, in paper order.
pub fn run_all(scale: f64) -> String {
    let mut out = String::new();
    out.push_str(&table2::run(scale));
    out.push_str(&table3::run(scale));
    out.push_str(&fig1::run(scale));
    out.push_str(&fig4::run(scale));
    out.push_str(&fig5::run(scale));
    out.push_str(&fig6::run(scale));
    out.push_str(&fig7::run(scale));
    out.push_str(&fig8::run(scale));
    out.push_str(&fig9::run(scale));
    out
}

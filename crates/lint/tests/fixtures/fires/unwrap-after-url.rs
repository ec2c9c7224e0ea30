//! lint-fixture: path=crates/sim/src/fx.rs rule=unwrap
fn f(o: Option<u32>) -> u32 {
    let url = "http://example.org"; o.unwrap()
}

//! The kernel/variant registry.
//!
//! EASYPAP discovers `<kernel>_compute_<variant>` symbols at link time;
//! the Rust equivalent is an explicit registry mapping kernel names to
//! factories. "New kernels can obviously be easily added" (§II-A):
//! register a factory and the CLI, the sweep runner and the examples can
//! all reach it by name.

use crate::error::{Error, Result};
use crate::kernel::Kernel;
use std::collections::BTreeMap;

/// Factory producing a fresh kernel instance for one run.
pub type KernelFactory = fn() -> Box<dyn Kernel>;

/// Maps `--kernel` names to kernel factories.
#[derive(Default)]
pub struct Registry {
    factories: BTreeMap<String, KernelFactory>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Registers `factory` under `name`, replacing any previous entry.
    pub fn register(&mut self, name: &str, factory: KernelFactory) -> &mut Self {
        self.factories.insert(name.to_string(), factory);
        self
    }

    /// Instantiates the kernel registered under `name`.
    pub fn create(&self, name: &str) -> Result<Box<dyn Kernel>> {
        self.factories
            .get(name)
            .map(|f| f())
            .ok_or_else(|| Error::UnknownKernel {
                kernel: name.to_string(),
                variant: "*".to_string(),
            })
    }

    /// Instantiates a kernel and checks that it offers `variant`.
    pub fn create_variant(&self, name: &str, variant: &str) -> Result<Box<dyn Kernel>> {
        let k = self.create(name)?;
        if !k.variants().contains(&variant) {
            return Err(Error::UnknownKernel {
                kernel: name.to_string(),
                variant: variant.to_string(),
            });
        }
        Ok(k)
    }

    /// Registered kernel names, sorted.
    pub fn kernel_names(&self) -> Vec<&str> {
        self.factories.keys().map(String::as_str).collect()
    }

    /// True when `name` is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.factories.contains_key(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::KernelCtx;

    struct Dummy;

    impl Kernel for Dummy {
        fn name(&self) -> &'static str {
            "dummy"
        }
        fn variants(&self) -> Vec<&'static str> {
            vec!["seq", "par"]
        }
        fn init(&mut self, _ctx: &mut KernelCtx) -> Result<()> {
            Ok(())
        }
        fn compute(&mut self, _ctx: &mut KernelCtx, _v: &str, _n: u32) -> Result<Option<u32>> {
            Ok(None)
        }
    }

    fn make_dummy() -> Box<dyn Kernel> {
        Box::new(Dummy)
    }

    #[test]
    fn register_and_create() {
        let mut reg = Registry::new();
        reg.register("dummy", make_dummy);
        assert!(reg.contains("dummy"));
        assert_eq!(reg.kernel_names(), vec!["dummy"]);
        let k = reg.create("dummy").unwrap();
        assert_eq!(k.name(), "dummy");
    }

    #[test]
    fn unknown_kernel_is_an_error() {
        let reg = Registry::new();
        assert!(matches!(
            reg.create("mandel"),
            Err(Error::UnknownKernel { .. })
        ));
    }

    #[test]
    fn variant_checking() {
        let mut reg = Registry::new();
        reg.register("dummy", make_dummy);
        assert!(reg.create_variant("dummy", "seq").is_ok());
        assert!(reg.create_variant("dummy", "par").is_ok());
        let err = match reg.create_variant("dummy", "gpu") {
            Err(e) => e,
            Ok(_) => panic!("expected UnknownKernel error"),
        };
        assert!(err.to_string().contains("gpu"));
    }

    #[test]
    fn names_are_sorted() {
        let mut reg = Registry::new();
        reg.register("zeta", make_dummy)
            .register("alpha", make_dummy);
        assert_eq!(reg.kernel_names(), vec!["alpha", "zeta"]);
    }
}
